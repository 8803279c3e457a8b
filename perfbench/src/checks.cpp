#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "util/time.h"

namespace perfbench {
namespace {

// Task durations are rounded to whole microseconds when the engine
// schedules finishes, so a run may undercut the exact bound by rounding.
constexpr double kRoundingSlackS = 1e-3;

std::string format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace

double Expectation::makespan_bound_s() const {
  return std::max(critical_path_bound_s, work_bound_s);
}

Expectation expect(const dsp::JobSet& jobs, const dsp::ClusterSpec& cluster) {
  Expectation e;
  e.jobs = jobs.size();
  dsp::SimTime first_arrival = std::numeric_limits<dsp::SimTime>::max();
  for (const dsp::Job& j : jobs) first_arrival = std::min(first_arrival, j.arrival());
  double work_mi = 0.0;
  const double fastest = cluster.max_rate();
  for (const dsp::Job& j : jobs) {
    e.tasks += j.task_count();
    work_mi += j.total_work_mi();
    const double offset = dsp::to_seconds(j.arrival() - first_arrival);
    e.critical_path_bound_s =
        std::max(e.critical_path_bound_s,
                 offset + dsp::to_seconds(j.critical_path_time(fastest)));
  }
  double slot_rate = 0.0;
  for (std::size_t k = 0; k < cluster.size(); ++k)
    slot_rate += cluster.node(k).slots * cluster.rate(k);
  e.work_bound_s = work_mi / slot_rate;
  return e;
}

Outcome outcome_of(const dsp::RunMetrics& m) {
  return {m.makespan,          m.jobs_finished,     m.tasks_finished,
          m.jobs_met_deadline, m.disorders,         m.preemptions,
          m.preempt_evaluations, m.avg_job_waiting_s(), m.slot_utilization};
}

std::vector<std::string> check_run(const dsp::RunMetrics& m,
                                   const Expectation& e, const Outcome& first) {
  std::vector<std::string> failed;
  if (m.jobs_finished != e.jobs)
    failed.push_back(format("jobs_finished %.0f != generated %.0f",
                            static_cast<double>(m.jobs_finished),
                            static_cast<double>(e.jobs)));
  if (m.tasks_finished != e.tasks)
    failed.push_back(format("tasks_finished %.0f != generated %.0f",
                            static_cast<double>(m.tasks_finished),
                            static_cast<double>(e.tasks)));
  const double makespan_s = dsp::to_seconds(m.makespan);
  if (makespan_s + kRoundingSlackS < e.makespan_bound_s())
    failed.push_back(format("makespan %.6f s below lower bound %.6f s",
                            makespan_s, e.makespan_bound_s()));
  if (!(outcome_of(m) == first))
    failed.push_back("simulated metrics differ from the cell's first run");
  return failed;
}

std::vector<std::string> self_test(const dsp::RunMetrics& good,
                                   const Expectation& e) {
  const Outcome first = outcome_of(good);
  std::vector<std::string> missed;
  if (!check_run(good, e, first).empty())
    missed.push_back("a correct run is rejected");
  auto expect_fires = [&](const char* what, auto corrupt) {
    dsp::RunMetrics bad = good;
    corrupt(bad);
    if (check_run(bad, e, first).empty()) missed.push_back(what);
  };
  expect_fires("job count", [](dsp::RunMetrics& m) { --m.jobs_finished; });
  expect_fires("task count", [](dsp::RunMetrics& m) { ++m.tasks_finished; });
  expect_fires("makespan bound", [&](dsp::RunMetrics& m) {
    m.makespan = dsp::from_seconds(e.makespan_bound_s() * 0.99);
  });
  expect_fires("repeat identity", [](dsp::RunMetrics& m) { ++m.disorders; });
  return missed;
}

}  // namespace perfbench

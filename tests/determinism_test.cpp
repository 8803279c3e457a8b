// Determinism guarantees of the incremental epoch hot path: priorities
// from the incremental compute_all must be bit-identical to a full
// recompute, and the whole preemption audit trail and execution timeline
// must be independent of the threads knob.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/dsp_scheduler.h"
#include "core/ilp_model.h"
#include "core/preemption.h"
#include "core/priority.h"
#include "lp/milp.h"
#include "obs/audit.h"
#include "sim/engine.h"
#include "sim/failures.h"
#include "test_util.h"
#include "trace/workload.h"
#include "util/rng.h"

namespace dsp {
namespace {

WorkloadConfig contended_config(std::size_t job_count) {
  WorkloadConfig cfg;
  cfg.job_count = job_count;
  cfg.task_scale = 0.01;
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 50.0;
  return cfg;
}

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

// ---------------------------------------------------------------------
// Incremental compute_all vs full recompute
// ---------------------------------------------------------------------

/// Each epoch, computes priorities two ways — full recompute (invalidate()
/// before every call) and incremental — plus a same-timestamp repeat that
/// exercises the all-clean path, and requires exact equality across all
/// of them. Exact, because a job's lines depend on its state only, never
/// on when they were rebuilt.
///
/// With a nonzero `skip_seed`, the probe skips both refreshes for seeded
/// random runs of 1-5 epochs, as DspPreemption skips the priority pass at
/// epochs without a victim; the incremental refresh that ends a run
/// catches up across every event of the skipped epochs and must still
/// match the from-scratch reference bit for bit.
class DualProbe : public PreemptionPolicy {
 public:
  explicit DualProbe(const DspParams& params, std::uint64_t skip_seed = 0)
      : reference_(params),
        incremental_(params),
        skip_(skip_seed),
        skip_seed_(skip_seed) {}
  const char* name() const override { return "DualProbe"; }

  void on_epoch(Engine& engine) override {
    if (skip_left_ > 0) {
      --skip_left_;
      ++skipped;
      return;
    }
    if (skip_seed_ != 0 && skip_.chance(0.5))
      skip_left_ = static_cast<int>(skip_.uniform_int(1, 5));
    reference_.invalidate();  // force the full-recompute reference path
    const auto r0 = reference_.compute_all(engine);
    const auto r1 = incremental_.compute_all(engine);
    ++epochs;
    // Exact comparison: priorities are never NaN (t_rem is clamped), so
    // this is bit-for-bit.
    if (!same_priorities(engine)) ++incremental_mismatches;
    if (r1.min_p != r0.min_p || r1.max_p != r0.max_p ||
        r1.live_tasks != r0.live_tasks)
      ++range_mismatches;
    // Repeat at the same timestamp with no intervening events: every job
    // is clean, so this must rebuild nothing and change nothing.
    const std::uint64_t rebuilds = incremental_.rebuilds();
    const auto r3 = incremental_.compute_all(engine);
    if (!same_priorities(engine) || r3.live_tasks != r0.live_tasks ||
        r3.min_p != r0.min_p || r3.max_p != r0.max_p ||
        incremental_.rebuilds() != rebuilds)
      ++skip_path_mismatches;
  }

  int epochs = 0;   // compared epochs
  int skipped = 0;  // epochs without a refresh
  int incremental_mismatches = 0;
  int range_mismatches = 0;
  int skip_path_mismatches = 0;

 private:
  bool same_priorities(const Engine& engine) const {
    for (Gid g = 0; g < engine.total_task_count(); ++g)
      if (incremental_.at(g) != reference_.at(g)) return false;
    return true;
  }

  DependencyPriority reference_;
  DependencyPriority incremental_;
  Rng skip_;
  std::uint64_t skip_seed_ = 0;
  int skip_left_ = 0;
};

TEST(DeterminismTest, IncrementalMatchesFullRecomputeBitwise) {
  const JobSet jobs = WorkloadGenerator(contended_config(10), 311).generate();
  DspScheduler sched;
  DspParams params;
  DualProbe probe(params);
  Engine engine(ClusterSpec::ec2(4), jobs, sched, &probe, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, total_tasks(jobs));
  ASSERT_GT(probe.epochs, 10);
  EXPECT_EQ(probe.incremental_mismatches, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
  EXPECT_EQ(probe.skip_path_mismatches, 0);
}

TEST(DeterminismTest, IncrementalMatchesFullRecomputeUnderNodeEvents) {
  // Failures, slowdowns and recoveries change node rates out from under
  // waiting tasks; the dirty-bit plumbing must invalidate those jobs too.
  const JobSet jobs = WorkloadGenerator(contended_config(8), 313).generate();
  DspScheduler sched;
  DspParams params;
  DualProbe probe(params);
  const ClusterSpec cluster = ClusterSpec::ec2(4);
  Engine engine(cluster, jobs, sched, &probe, fast_params());
  FailurePlan plan = FailurePlan::random_outages(cluster, 4 * kHour, 0.5, 2.0, 317);
  plan.add_slowdown(0, 10 * kSecond, 2 * kMinute, 0.5);
  engine.set_failure_plan(plan);
  engine.run();
  ASSERT_GT(probe.epochs, 10);
  EXPECT_EQ(probe.incremental_mismatches, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
  EXPECT_EQ(probe.skip_path_mismatches, 0);
}

TEST(DeterminismTest, CatchUpAfterSkippedRefreshesMatchesFullRecompute) {
  const JobSet jobs = WorkloadGenerator(contended_config(10), 311).generate();
  DspScheduler sched;
  DspParams params;
  DualProbe probe(params, /*skip_seed=*/331);
  Engine engine(ClusterSpec::ec2(4), jobs, sched, &probe, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, total_tasks(jobs));
  ASSERT_GT(probe.epochs, 10);
  ASSERT_GT(probe.skipped, probe.epochs / 2);
  EXPECT_EQ(probe.incremental_mismatches, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
  EXPECT_EQ(probe.skip_path_mismatches, 0);
}

TEST(DeterminismTest, CatchUpAfterSkippedRefreshesUnderNodeEvents) {
  const JobSet jobs = WorkloadGenerator(contended_config(8), 313).generate();
  DspScheduler sched;
  DspParams params;
  DualProbe probe(params, /*skip_seed=*/337);
  const ClusterSpec cluster = ClusterSpec::ec2(4);
  Engine engine(cluster, jobs, sched, &probe, fast_params());
  FailurePlan plan = FailurePlan::random_outages(cluster, 4 * kHour, 0.5, 2.0, 317);
  plan.add_slowdown(0, 10 * kSecond, 2 * kMinute, 0.5);
  engine.set_failure_plan(plan);
  engine.run();
  ASSERT_GT(probe.epochs, 10);
  ASSERT_GT(probe.skipped, probe.epochs / 2);
  EXPECT_EQ(probe.incremental_mismatches, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
  EXPECT_EQ(probe.skip_path_mismatches, 0);
}

// ---------------------------------------------------------------------
// Whole-run audit trail and timeline vs the threads knob
// ---------------------------------------------------------------------

struct RunResult {
  RunMetrics metrics;
  std::vector<obs::PreemptDecision> decisions;
  std::string timeline_csv;  // folded from the run's events
};

RunResult run_dsp_with_threads(int threads) {
  const JobSet jobs = WorkloadGenerator(contended_config(10), 331).generate();
  DspParams params;
  params.threads = threads;
  DspScheduler sched;
  DspPreemption policy(params);
  Engine engine(ClusterSpec::ec2(4), jobs, sched, &policy, fast_params());
  obs::PreemptionAuditTrail trail;
  engine.set_audit(&trail);
  const testing::RecordedRun run = testing::run_recorded(engine);
  RunResult r;
  r.metrics = run.metrics;
  r.decisions = trail.decisions();
  std::ostringstream csv;
  run.timeline.write_csv(csv);
  r.timeline_csv = csv.str();
  return r;
}

void expect_decisions_identical(const obs::PreemptDecision& a,
                                const obs::PreemptDecision& b,
                                std::size_t index) {
  EXPECT_EQ(a.time, b.time) << index;
  EXPECT_EQ(a.node, b.node) << index;
  EXPECT_EQ(a.candidate, b.candidate) << index;
  EXPECT_EQ(a.victim, b.victim) << index;
  EXPECT_EQ(a.candidate_priority, b.candidate_priority) << index;
  EXPECT_EQ(a.victim_priority, b.victim_priority) << index;
  EXPECT_EQ(a.normalized_gap, b.normalized_gap) << index;
  EXPECT_EQ(a.delta, b.delta) << index;
  EXPECT_EQ(a.urgent, b.urgent) << index;
  EXPECT_EQ(a.outcome, b.outcome) << index;
}

TEST(DeterminismTest, AuditTrailIdenticalAcrossThreadCounts) {
  const RunResult serial = run_dsp_with_threads(1);
  ASSERT_FALSE(serial.decisions.empty());
  for (const int threads : {2, 4}) {
    const RunResult parallel = run_dsp_with_threads(threads);
    EXPECT_EQ(parallel.metrics.makespan, serial.metrics.makespan) << threads;
    EXPECT_EQ(parallel.metrics.preemptions, serial.metrics.preemptions)
        << threads;
    EXPECT_EQ(parallel.metrics.tasks_finished, serial.metrics.tasks_finished)
        << threads;
    EXPECT_EQ(parallel.metrics.job_waiting_s, serial.metrics.job_waiting_s)
        << threads;
    ASSERT_EQ(parallel.decisions.size(), serial.decisions.size()) << threads;
    for (std::size_t i = 0; i < serial.decisions.size(); ++i)
      expect_decisions_identical(serial.decisions[i], parallel.decisions[i],
                                 i);
    EXPECT_EQ(parallel.timeline_csv, serial.timeline_csv) << threads;
  }
}

// ---------------------------------------------------------------------
// Parallel branch & bound vs the threads knob
// ---------------------------------------------------------------------

/// An ILP instance whose LP relaxation is fractional, so the solver
/// actually branches and the parallel waves carry several nodes.
IlpProblem branching_ilp_instance() {
  IlpProblem p;
  p.machine_rates = {1.0, 1.4};
  p.tasks.resize(5);
  p.tasks[0].size_mi = 3.0;
  p.tasks[1].size_mi = 2.0;
  p.tasks[2].size_mi = 4.0;
  p.tasks[2].parents = {0};
  p.tasks[3].size_mi = 1.0;
  p.tasks[3].parents = {1};
  p.tasks[4].size_mi = 2.0;
  p.tasks[4].parents = {2, 3};
  return p;
}

TEST(DeterminismTest, MilpSolutionsIdenticalAcrossThreadCounts) {
  const lp::Model model =
      build_ilp_model(branching_ilp_instance(), /*enforce_deadlines=*/true);

  lp::Solution reference;
  int reference_nodes = 0;
  for (const int threads : {1, 2, 4}) {
    lp::MilpSolver::Options o;
    o.threads = threads;
    lp::MilpSolver solver(o);
    const lp::Solution s = solver.solve(model);
    ASSERT_EQ(s.status, lp::SolveStatus::kOptimal) << threads;
    if (threads == 1) {
      reference = s;
      reference_nodes = solver.last_nodes();
      ASSERT_GT(reference_nodes, 1);  // the instance must branch
      continue;
    }
    EXPECT_EQ(solver.last_nodes(), reference_nodes) << threads;
    EXPECT_EQ(s.objective, reference.objective) << threads;
    ASSERT_EQ(s.x.size(), reference.x.size()) << threads;
    for (std::size_t i = 0; i < reference.x.size(); ++i)
      EXPECT_EQ(s.x[i], reference.x[i]) << threads << " var " << i;
  }
}

TEST(DeterminismTest, MilpHonoursDspThreadsEnv) {
  // threads <= 0 resolves the worker count from DSP_THREADS; the result
  // must still be bit-identical to the explicit serial solve.
  const lp::Model model =
      build_ilp_model(branching_ilp_instance(), /*enforce_deadlines=*/true);

  lp::MilpSolver::Options serial_opts;
  serial_opts.threads = 1;
  lp::MilpSolver serial(serial_opts);
  const lp::Solution reference = serial.solve(model);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);

  const char* saved = std::getenv("DSP_THREADS");
  const std::string saved_value = saved == nullptr ? "" : saved;
  ::setenv("DSP_THREADS", "3", 1);
  {
    lp::MilpSolver from_env;  // Options::threads defaults to 0
    const lp::Solution s = from_env.solve(model);
    EXPECT_EQ(s.status, lp::SolveStatus::kOptimal);
    EXPECT_EQ(s.objective, reference.objective);
    ASSERT_EQ(s.x.size(), reference.x.size());
    for (std::size_t i = 0; i < reference.x.size(); ++i)
      EXPECT_EQ(s.x[i], reference.x[i]) << "var " << i;
    EXPECT_EQ(from_env.last_nodes(), serial.last_nodes());
  }
  if (saved == nullptr)
    ::unsetenv("DSP_THREADS");
  else
    ::setenv("DSP_THREADS", saved_value.c_str(), 1);
}

}  // namespace
}  // namespace dsp

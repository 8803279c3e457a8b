// Integration tests: full offline+online runs across scheduler/policy
// combinations, asserting system-level invariants and the paper's
// qualitative orderings on small workloads.
#include <gtest/gtest.h>

#include "baselines/aalo.h"
#include "baselines/preempt_baselines.h"
#include "baselines/tetris.h"
#include "core/dsp_system.h"
#include "metrics/report.h"
#include "trace/workload.h"

namespace dsp {
namespace {

WorkloadConfig bench_like_config(std::size_t jobs) {
  WorkloadConfig cfg;
  cfg.job_count = jobs;
  cfg.task_scale = 0.01;
  return cfg;
}

EngineParams medium_params() {
  EngineParams p;
  p.period = 30 * kSecond;
  p.epoch = 3 * kSecond;
  return p;
}

// ---------------------------------------------------------------------

TEST(IntegrationTest, DspSystemRunsEndToEnd) {
  DspSystem dsp;
  const JobSet jobs = WorkloadGenerator(bench_like_config(12), 211).generate();
  const std::size_t expected = total_tasks(jobs);
  const RunMetrics m =
      dsp.run(ClusterSpec::real_cluster(10), jobs, medium_params());
  EXPECT_EQ(m.tasks_finished, expected);
  EXPECT_EQ(m.jobs_finished, 12u);
  EXPECT_EQ(m.disorders, 0u);
  EXPECT_GT(m.makespan, 0);
}

TEST(IntegrationTest, AllSchedulerBaselinesComplete) {
  const JobSet jobs = WorkloadGenerator(bench_like_config(9), 223).generate();
  const std::size_t expected = total_tasks(jobs);

  DspScheduler dsp;
  TetrisScheduler tetris_nodep(TetrisScheduler::Dependency::kNone);
  TetrisScheduler tetris_simdep(TetrisScheduler::Dependency::kSimple);
  AaloScheduler aalo;
  for (Scheduler* sched : std::initializer_list<Scheduler*>{
           &dsp, &tetris_nodep, &tetris_simdep, &aalo}) {
    const RunMetrics m = simulate(ClusterSpec::ec2(6), jobs, *sched, nullptr,
                                  medium_params());
    EXPECT_EQ(m.tasks_finished, expected) << sched->name();
    EXPECT_EQ(m.jobs_finished, 9u) << sched->name();
  }
}

TEST(IntegrationTest, AllPreemptionPoliciesCompleteOnDspSchedule) {
  const JobSet jobs = WorkloadGenerator(bench_like_config(9), 227).generate();
  const std::size_t expected = total_tasks(jobs);

  DspParams params;
  DspPreemption dsp_pp(params);
  DspParams no_pp_params;
  no_pp_params.normalized_pp = false;
  DspPreemption dsp_nopp(no_pp_params);
  AmoebaPolicy amoeba;
  NatjamPolicy natjam;
  SrptPolicy srpt;
  for (PreemptionPolicy* policy : std::initializer_list<PreemptionPolicy*>{
           &dsp_pp, &dsp_nopp, &amoeba, &natjam, &srpt}) {
    DspScheduler sched;  // "our initial schedule for all preemption methods"
    const RunMetrics m = simulate(ClusterSpec::ec2(6), jobs, sched, policy,
                                  medium_params());
    EXPECT_EQ(m.tasks_finished, expected) << policy->name();
  }
}

TEST(IntegrationTest, DspHasZeroDisordersBaselinesMayNot) {
  // The Fig. 6(a) invariant: DSP's disorder count is exactly zero under
  // any load; dependency-blind policies accumulate disorders under
  // contention.
  WorkloadConfig cfg = bench_like_config(12);
  cfg.min_arrival_rate = 60.0;  // heavy contention on a small cluster
  cfg.max_arrival_rate = 80.0;
  const JobSet jobs = WorkloadGenerator(cfg, 229).generate();

  DspParams params;
  DspPreemption dsp_policy(params);
  DspScheduler dsp_sched;
  const RunMetrics dsp_m = simulate(ClusterSpec::ec2(3), jobs, dsp_sched,
                                    &dsp_policy, medium_params());
  EXPECT_EQ(dsp_m.disorders, 0u);

  SrptPolicy srpt;
  DspScheduler srpt_sched;
  const RunMetrics srpt_m = simulate(ClusterSpec::ec2(3), jobs, srpt_sched,
                                     &srpt, medium_params());
  EXPECT_GT(srpt_m.disorders, 0u);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  const JobSet jobs = WorkloadGenerator(bench_like_config(8), 233).generate();
  auto run = [&jobs](DspSystem& dsp) {
    return dsp.run(ClusterSpec::ec2(5), jobs, medium_params());
  };
  DspSystem first, second;
  const RunMetrics a = run(first);
  const RunMetrics b = run(second);
  // `first` again: its new Engine is built where the last one was, with
  // the same job and task counts, and must not inherit that run's
  // priorities or adapted delta.
  const RunMetrics c = run(first);
  for (const RunMetrics* m : {&b, &c}) {
    EXPECT_EQ(a.makespan, m->makespan);
    EXPECT_EQ(a.preemptions, m->preemptions);
    EXPECT_EQ(a.disorders, m->disorders);
    EXPECT_EQ(a.tasks_finished, m->tasks_finished);
    EXPECT_EQ(a.job_waiting_s, m->job_waiting_s);
  }
}

TEST(IntegrationTest, DspMeetsDeadlinesUnderLightLoad) {
  // Under light load with generous slack, DSP should meet nearly all
  // deadlines.
  WorkloadConfig cfg = bench_like_config(9);
  cfg.min_arrival_rate = 0.5;
  cfg.max_arrival_rate = 1.0;
  const JobSet jobs = WorkloadGenerator(cfg, 239).generate();
  DspSystem dsp;
  const RunMetrics m =
      dsp.run(ClusterSpec::real_cluster(20), jobs, medium_params());
  EXPECT_GE(m.jobs_met_deadline, 8u);
}

TEST(IntegrationTest, DspMakespanNotWorseThanBlindTetris) {
  // The Fig. 5 headline on a small instance: DSP's makespan is no worse
  // than dependency-blind Tetris.
  const JobSet jobs = WorkloadGenerator(bench_like_config(12), 241).generate();
  DspSystem dsp;
  const RunMetrics dsp_m = dsp.run(ClusterSpec::ec2(5), jobs, medium_params());
  TetrisScheduler tetris(TetrisScheduler::Dependency::kNone);
  const RunMetrics tetris_m =
      simulate(ClusterSpec::ec2(5), jobs, tetris, nullptr, medium_params());
  EXPECT_LE(dsp_m.makespan, tetris_m.makespan * 11 / 10);
}

TEST(IntegrationTest, MetricsInternallyConsistent) {
  DspSystem dsp;
  const JobSet jobs = WorkloadGenerator(bench_like_config(9), 251).generate();
  const RunMetrics m = dsp.run(ClusterSpec::ec2(5), jobs, medium_params());
  EXPECT_EQ(m.jobs_met_deadline + m.deadline_misses, m.jobs_finished);
  EXPECT_EQ(m.job_waiting_s.size(), m.jobs_finished);
  EXPECT_GE(m.slot_utilization, 0.0);
  EXPECT_LE(m.slot_utilization, 1.0 + 1e-9);
  EXPECT_GE(m.throughput_tasks_per_ms(), 0.0);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

TEST(ReportTest, MetricSeriesTableLayout) {
  MetricSeries series({"DSP", "SRPT"}, {150, 300});
  RunMetrics m;
  m.makespan = 10 * kSecond;
  m.tasks_finished = 100;
  series.set(0, 0, m);
  m.makespan = 20 * kSecond;
  series.set(1, 0, m);
  series.set(0, 1, m);
  series.set(1, 1, m);

  const Table t = series.makespan_table("demo");
  const std::string out = t.render();
  EXPECT_NE(out.find("DSP"), std::string::npos);
  EXPECT_NE(out.find("SRPT"), std::string::npos);
  EXPECT_NE(out.find("150"), std::string::npos);
  EXPECT_NE(out.find("10.00"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(ReportTest, ThroughputAndCountTables) {
  MetricSeries series({"A"}, {1});
  RunMetrics m;
  m.makespan = kSecond;
  m.tasks_finished = 500;
  m.disorders = 3;
  m.preemptions = 7;
  m.job_waiting_s = {1.5, 2.5};
  series.set(0, 0, m);
  EXPECT_NE(series.throughput_table("t").render().find("0.5000"),
            std::string::npos);
  EXPECT_NE(series.disorders_table("d").render().find("3"), std::string::npos);
  EXPECT_NE(series.preemptions_table("p").render().find("7"),
            std::string::npos);
  EXPECT_NE(series.waiting_table("w").render().find("2.00"),
            std::string::npos);
}

TEST(ReportTest, SummarizeMentionsKeyNumbers) {
  RunMetrics m;
  m.makespan = 90 * kMinute;
  m.tasks_finished = 1234;
  m.preemptions = 9;
  const std::string s = summarize(m);
  EXPECT_NE(s.find("1h30m"), std::string::npos);
  EXPECT_NE(s.find("1234"), std::string::npos);
  EXPECT_NE(s.find("preemptions=9"), std::string::npos);
}

}  // namespace
}  // namespace dsp

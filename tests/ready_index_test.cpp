// The per-node ready index (Engine::ready_waiting) must always hold exactly
// the ready tasks of the node's waiting queue, in queue order. A checking
// scheduler compares the two at every dispatch decision and a checking
// policy at every epoch, over runs that move tasks through every way in and
// out of the index: hoarding and hoard timeouts, outages, slowdowns and
// straggler migrations, cross-job dependency chains, and preempt-in and
// requeue under DSP and SRPT.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/preempt_baselines.h"
#include "baselines/tetris.h"
#include "core/dsp_scheduler.h"
#include "core/preemption.h"
#include "obs/events.h"
#include "sim/engine.h"
#include "sim/failures.h"
#include "trace/workload.h"

namespace dsp {
namespace {

/// Comparisons of the index against the filtered queue, and what they saw.
struct IndexAudit {
  int checks = 0;
  int mismatches = 0;      // nodes whose index differed
  int waiting_on_job = 0;  // queued tasks blocked by a predecessor job
  std::vector<Gid> index, expected;  // scratch

  void check(const Engine& engine) {
    // One mismatch fails the test; a broken index can also stall the run,
    // so stop paying for full comparisons once it is found.
    if (mismatches > 0) return;
    ++checks;
    for (int k = 0; k < static_cast<int>(engine.node_count()); ++k) {
      engine.ready_waiting(k).copy_to(index);
      expected.clear();
      for (const Gid g : engine.waiting(k)) {
        if (engine.is_ready(g)) expected.push_back(g);
        if (engine.unfinished_predecessor_jobs(engine.job_of(g)) > 0)
          ++waiting_on_job;
      }
      if (index != expected || engine.ready_waiting(k).size() != index.size())
        ++mismatches;
    }
  }
};

/// Checks the index at every dispatch decision, then defers to `inner`.
class CheckingScheduler : public Scheduler {
 public:
  CheckingScheduler(Scheduler& inner, IndexAudit& audit)
      : inner_(inner), audit_(audit) {}
  const char* name() const override { return inner_.name(); }
  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override {
    return inner_.schedule(jobs, engine);
  }
  Gid select_next(int node, Engine& engine,
                  const std::vector<std::uint8_t>& excluded) override {
    audit_.check(engine);
    return inner_.select_next(node, engine, excluded);
  }
  bool hoards_slots() const override { return inner_.hoards_slots(); }

 private:
  Scheduler& inner_;
  IndexAudit& audit_;
};

/// Checks the index before and after every epoch of `inner` (or of no
/// policy at all, when `inner` is null).
class CheckingPolicy : public PreemptionPolicy {
 public:
  CheckingPolicy(PreemptionPolicy* inner, IndexAudit& audit)
      : inner_(inner), audit_(audit) {}
  const char* name() const override {
    return inner_ != nullptr ? inner_->name() : "none";
  }
  CheckpointMode checkpoint_mode() const override {
    return inner_ != nullptr ? inner_->checkpoint_mode()
                             : CheckpointMode::kCheckpoint;
  }
  void on_epoch(Engine& engine) override {
    audit_.check(engine);
    if (inner_ != nullptr) inner_->on_epoch(engine);
    audit_.check(engine);
  }

 private:
  PreemptionPolicy* inner_;
  IndexAudit& audit_;
};

JobSet contended_jobs(std::size_t job_count, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.job_count = job_count;
  cfg.task_scale = 0.01;
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 50.0;
  return WorkloadGenerator(cfg, seed).generate();
}

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

/// Event counts of one run, by kind.
struct RunCounts {
  RunMetrics metrics;
  std::vector<std::size_t> events =
      std::vector<std::size_t>(obs::kEventKindCount);
  std::size_t count(obs::EventKind k) const {
    return events[static_cast<std::size_t>(k)];
  }
};

/// Runs `jobs` with the index checked at every dispatch and epoch.
template <class Setup>
RunCounts checked_run(JobSet jobs, Scheduler& sched,
                      PreemptionPolicy* policy, IndexAudit& audit,
                      const EngineParams& params, Setup setup) {
  CheckingScheduler checking_sched(sched, audit);
  CheckingPolicy checking_policy(policy, audit);
  const ClusterSpec cluster = ClusterSpec::ec2(4);
  Engine engine(cluster, std::move(jobs), checking_sched, &checking_policy,
                params);
  obs::EventLog log(std::size_t{1} << 20);
  engine.set_event_log(&log);
  setup(engine, cluster);
  RunCounts run;
  run.metrics = engine.run();
  for (const obs::Event& e : log.snapshot())
    ++run.events[static_cast<std::size_t>(e.kind)];
  return run;
}

void no_setup(Engine&, const ClusterSpec&) {}

TEST(ReadyIndexTest, TetrisWithoutDependencyHoardsAndTimesOut) {
  const JobSet jobs = contended_jobs(10, 401);
  const std::size_t tasks = total_tasks(jobs);
  TetrisScheduler sched(TetrisScheduler::Dependency::kNone);
  IndexAudit audit;
  EngineParams params = fast_params();
  params.hoard_timeout = 2 * kSecond;
  const RunCounts run =
      checked_run(jobs, sched, nullptr, audit, params, no_setup);
  EXPECT_EQ(run.metrics.tasks_finished, tasks);
  EXPECT_GT(run.count(obs::EventKind::kHoardStart), 0u);
  EXPECT_GT(run.count(obs::EventKind::kHoardEvict), 0u);
  ASSERT_GT(audit.checks, 100);
  EXPECT_EQ(audit.mismatches, 0);
}

TEST(ReadyIndexTest, OutagesSlowdownsAndStragglerMigrations) {
  const JobSet jobs = contended_jobs(10, 403);
  const std::size_t tasks = total_tasks(jobs);
  DspScheduler sched;
  DspParams dsp;
  dsp.straggler_mitigation = true;
  DspPreemption policy(dsp);
  IndexAudit audit;
  const RunCounts run = checked_run(
      jobs, sched, &policy, audit, fast_params(),
      [](Engine& engine, const ClusterSpec& cluster) {
        FailurePlan plan =
            FailurePlan::random_outages(cluster, 4 * kHour, 0.5, 2.0, 409);
        plan.add_slowdown(0, 5 * kSecond, 10 * kMinute, 0.3);
        plan.add_slowdown(2, 20 * kSecond, 10 * kMinute, 0.4);
        engine.set_failure_plan(plan);
      });
  EXPECT_EQ(run.metrics.tasks_finished, tasks);
  EXPECT_GT(run.metrics.node_failures, 0u);
  EXPECT_GT(run.count(obs::EventKind::kTaskMigrate), 0u);
  EXPECT_GT(run.metrics.preemptions, 0u);
  ASSERT_GT(audit.checks, 100);
  EXPECT_EQ(audit.mismatches, 0);
}

TEST(ReadyIndexTest, JobDependencyChains) {
  // Every job waits for the one before it, so a successor's tasks sit
  // queued until their predecessor job completes, then all turn ready.
  const JobSet jobs = contended_jobs(10, 405);
  const std::size_t tasks = total_tasks(jobs);
  DspScheduler sched;
  DspPreemption policy;
  IndexAudit audit;
  const RunCounts run = checked_run(
      jobs, sched, &policy, audit, fast_params(),
      [](Engine& engine, const ClusterSpec&) {
        for (JobId j = 0; j + 1 < engine.job_count(); ++j)
          ASSERT_TRUE(engine.add_job_dependency(j, j + 1));
      });
  EXPECT_EQ(run.metrics.tasks_finished, tasks);
  EXPECT_GT(audit.waiting_on_job, 0);
  ASSERT_GT(audit.checks, 100);
  EXPECT_EQ(audit.mismatches, 0);
}

TEST(ReadyIndexTest, PreemptInAndRequeue) {
  for (const bool srpt : {false, true}) {
    SCOPED_TRACE(srpt ? "SRPT" : "DSP");
    const JobSet jobs = contended_jobs(10, 407);
    const std::size_t tasks = total_tasks(jobs);
    DspScheduler sched;
    std::unique_ptr<PreemptionPolicy> policy;
    if (srpt)
      policy = std::make_unique<SrptPolicy>();
    else
      policy = std::make_unique<DspPreemption>();
    IndexAudit audit;
    const RunCounts run = checked_run(jobs, sched, policy.get(), audit,
                                fast_params(), no_setup);
    EXPECT_EQ(run.metrics.tasks_finished, tasks);
    EXPECT_GT(run.metrics.preemptions, 0u);
    ASSERT_GT(audit.checks, 100);
    EXPECT_EQ(audit.mismatches, 0);
  }
}

}  // namespace
}  // namespace dsp

// Tests for dependency-aware priority (Formulas 12-13) against live engine
// state, reproducing the paper's Fig. 2 / Fig. 3 orderings, plus oracle
// tests of the line representation against a direct Formula 12/13 walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/dsp_scheduler.h"
#include "core/params.h"
#include "core/priority.h"
#include "sim/engine.h"
#include "sim/failures.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_chain_job;
using testing::make_fig2_job;
using testing::make_fig3_job;
using testing::make_independent_job;
using testing::RoundRobinScheduler;

ClusterSpec one_node() { return ClusterSpec::uniform(1, 1800.0, 2.0, 1); }

/// Captures per-task priorities at the first epoch, then lets the run end.
class PriorityProbe : public PreemptionPolicy {
 public:
  explicit PriorityProbe(const DspParams& params) : priority_(params) {}
  const char* name() const override { return "PriorityProbe"; }
  void on_epoch(Engine& engine) override {
    if (captured_) return;
    range = priority_.compute_all(engine);
    for (Gid g = 0; g < engine.total_task_count(); ++g)
      priorities.push_back(priority_.at(g));
    captured_ = true;
  }
  std::vector<double> priorities;
  DependencyPriority::Range range;

 private:
  DependencyPriority priority_;
  bool captured_ = false;
};

DspParams test_params() {
  DspParams p;
  p.gamma = 0.5;
  return p;
}

// ---------------------------------------------------------------------

TEST(PriorityTest, Fig2RootOutranksEverything) {
  // Fig. 2: T1 feeds two subtrees; with dependency considered, T1 must get
  // the highest priority of the whole job.
  JobSet jobs;
  jobs.push_back(make_fig2_job(0, 20000.0, 0, 10 * kMinute));
  RoundRobinScheduler sched;
  DspParams params = test_params();
  PriorityProbe probe(params);
  EngineParams ep;
  ep.period = 1 * kSecond;
  ep.epoch = 500 * kMillisecond;
  Engine engine(one_node(), std::move(jobs), sched, &probe, ep);
  engine.run();

  ASSERT_EQ(probe.priorities.size(), 7u);
  for (Gid g = 1; g < 7; ++g)
    EXPECT_GT(probe.priorities[0], probe.priorities[g]) << "vs task " << g;
  // Second level (T2, T3) outranks the leaves it feeds.
  EXPECT_GT(probe.priorities[1], probe.priorities[3]);
  EXPECT_GT(probe.priorities[1], probe.priorities[4]);
  EXPECT_GT(probe.priorities[2], probe.priorities[5]);
  EXPECT_GT(probe.priorities[2], probe.priorities[6]);
}

TEST(PriorityTest, Fig3DeeperDependentsOutrank) {
  // Fig. 3: equal first-level fan-out, but T11 (3 grandchildren) > T6
  // (1 grandchild) > T1 (none).
  JobSet jobs;
  jobs.push_back(make_fig3_job(0, 20000.0, 0, 30 * kMinute));
  RoundRobinScheduler sched;
  DspParams params = test_params();
  PriorityProbe probe(params);
  EngineParams ep;
  ep.period = 1 * kSecond;
  ep.epoch = 500 * kMillisecond;
  Engine engine(one_node(), std::move(jobs), sched, &probe, ep);
  engine.run();

  const double t1 = probe.priorities[0];
  const double t6 = probe.priorities[5];
  const double t11 = probe.priorities[11];
  EXPECT_GT(t11, t6);
  EXPECT_GT(t6, t1);
}

TEST(PriorityTest, LeafFormulaWeighting) {
  // Two independent tasks, one twice the size: the smaller (shorter
  // remaining time) gets the higher leaf priority when waits are equal.
  JobSet jobs;
  {
    Job job(0, 2);
    job.task(0).size_mi = 30000.0;
    job.task(1).size_mi = 60000.0;
    for (TaskIndex t = 0; t < 2; ++t)
      job.task(t).demand = Resources{1, 1, 0, 0};
    job.set_deadline(10 * kMinute);
    ASSERT_TRUE(job.finalize(1000.0));
    jobs.push_back(std::move(job));
  }
  RoundRobinScheduler sched;
  DspParams params = test_params();
  // Isolate the remaining-time term.
  params.omega1 = 1.0;
  params.omega2 = 0.0;
  params.omega3 = 0.0;
  PriorityProbe probe(params);
  EngineParams ep;
  ep.period = 1 * kSecond;
  ep.epoch = 500 * kMillisecond;
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 2), std::move(jobs), sched,
                &probe, ep);
  engine.run();
  EXPECT_GT(probe.priorities[0], probe.priorities[1]);
}

TEST(PriorityTest, WaitingTimeRaisesPriority) {
  // One running task; one waiting (1-slot node). With only the waiting
  // term active, the waiting task's priority must exceed the running one's.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 60000.0, 0, 30 * kMinute));
  RoundRobinScheduler sched;
  DspParams params = test_params();
  params.omega1 = 0.0;
  params.omega2 = 1.0;
  params.omega3 = 0.0;
  PriorityProbe probe(params);
  EngineParams ep;
  ep.period = 1 * kSecond;
  ep.epoch = 2 * kSecond;
  Engine engine(one_node(), std::move(jobs), sched, &probe, ep);
  engine.run();
  // Task 0 started at ~0 (waiting time 0); task 1 has been waiting 2 s.
  EXPECT_GT(probe.priorities[1], probe.priorities[0]);
}

TEST(PriorityTest, GammaAmplifiesDepth) {
  // Same chain, two gammas: the root's priority grows with gamma because
  // each level multiplies by (gamma + 1).
  auto root_priority = [](double gamma) {
    JobSet jobs;
    jobs.push_back(make_chain_job(0, 4, 30000.0, 0, 30 * kMinute));
    RoundRobinScheduler sched;
    DspParams params;
    params.gamma = gamma;
    PriorityProbe probe(params);
    EngineParams ep;
    ep.period = 1 * kSecond;
    ep.epoch = 500 * kMillisecond;
    Engine engine(one_node(), std::move(jobs), sched, &probe, ep);
    engine.run();
    return probe.priorities[0];
  };
  EXPECT_GT(root_priority(0.9), root_priority(0.1));
}

TEST(PriorityTest, FinishedTasksDropOut) {
  // Short chain on a fast node with long epochs: by the first epoch the
  // root may already be done; its priority must be reported as 0 and the
  // rest must still be internally consistent (no negative counts).
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 3, 100.0, 0, 10 * kMinute));
  RoundRobinScheduler sched;
  DspParams params = test_params();
  PriorityProbe probe(params);
  EngineParams ep;
  ep.period = 50 * kMillisecond;
  ep.epoch = 200 * kMillisecond;  // 0.1 s per task: root finished by then
  Engine engine(one_node(), std::move(jobs), sched, &probe, ep);
  engine.run();
  EXPECT_DOUBLE_EQ(probe.priorities[0], 0.0);
  EXPECT_GT(probe.range.live_tasks, 0u);
}

TEST(PriorityTest, RangeNeighborGap) {
  DependencyPriority::Range r;
  r.min_p = 1.0;
  r.max_p = 9.0;
  r.live_tasks = 5;
  EXPECT_DOUBLE_EQ(r.mean_neighbor_gap(), 2.0);
  r.live_tasks = 1;
  EXPECT_DOUBLE_EQ(r.mean_neighbor_gap(), 0.0);
}

TEST(PriorityTest, InternalPriorityEqualsWeightedChildSum) {
  // Verify Formula 12 numerically: parent = sum (gamma+1) * child over
  // unfinished children.
  JobSet jobs;
  jobs.push_back(make_fig2_job(0, 20000.0, 0, 10 * kMinute));
  RoundRobinScheduler sched;
  DspParams params = test_params();
  PriorityProbe probe(params);
  EngineParams ep;
  ep.period = 1 * kSecond;
  ep.epoch = 500 * kMillisecond;
  Engine engine(one_node(), std::move(jobs), sched, &probe, ep);
  engine.run();
  const double g1 = params.gamma + 1.0;
  EXPECT_NEAR(probe.priorities[1],
              g1 * (probe.priorities[3] + probe.priorities[4]), 1e-9);
  EXPECT_NEAR(probe.priorities[0],
              g1 * (probe.priorities[1] + probe.priorities[2]), 1e-9);
}

// ---------------------------------------------------------------------
// Oracle: the line representation against a direct Formula 12/13 walk
// ---------------------------------------------------------------------

/// Test-only reference: the direct Formula 12/13 walk at engine.now()
/// (children before parents over each active job's live tasks), which
/// recomputes every live task from its current leaf inputs. Entries of
/// inactive jobs and finished tasks stay 0.
std::vector<double> reference_walk(const Engine& engine,
                                   const DspParams& params) {
  std::vector<double> out(engine.total_task_count(), 0.0);
  const double g1 = params.gamma + 1.0;
  for (JobId j = 0; j < engine.job_count(); ++j) {
    if (!engine.job_scheduled(j) || engine.job_finished(j)) continue;
    const TaskGraph& graph = engine.job(j).graph();
    const Gid base = engine.gid(j, 0);
    for (const Gid g : engine.live_reverse_topo(j)) {
      double sum = 0.0;
      bool has_live_child = false;
      for (TaskIndex c : graph.children(engine.index_of(g))) {
        if (engine.state(base + c) == TaskState::kFinished) continue;
        has_live_child = true;
        sum += g1 * out[base + c];
      }
      if (has_live_child) {
        out[g] = sum;
        continue;
      }
      const Engine::LeafInputs in = engine.leaf_inputs(g);
      out[g] = params.omega1 / std::max(0.001, in.t_rem_s) +
               params.omega2 * in.t_wait_s + params.omega3 * in.t_allow_s;
    }
  }
  return out;
}

/// Each epoch: checks at() against the reference walk and the Range
/// against a brute-force min/max/count over at(), then suspends one
/// running leaf with try_preempt and checks that neither its snapshot nor
/// the incoming task's moved.
class OracleProbe : public PreemptionPolicy {
 public:
  explicit OracleProbe(const DspParams& params)
      : params_(params), priority_(params_) {}
  const char* name() const override { return "OracleProbe"; }

  void on_epoch(Engine& engine) override {
    const DependencyPriority::Range range = priority_.compute_all(engine);
    const std::vector<double> ref = reference_walk(engine, params_);
    ++epochs;

    DependencyPriority::Range brute;
    Gid brute_min_task = kInvalidGid;
    bool first = true;
    for (Gid g = 0; g < engine.total_task_count(); ++g) {
      const TaskState s = engine.state(g);
      const JobId j = engine.job_of(g);
      if (!engine.job_scheduled(j) || engine.job_finished(j) ||
          s == TaskState::kFinished) {
        if (priority_.at(g) != 0.0) ++stale_values;
        continue;
      }
      const double p = priority_.at(g);
      ++checked;
      const double rel = std::abs(p - ref[g]) / std::max(std::abs(ref[g]), 1.0);
      max_rel_error = std::max(max_rel_error, rel);
      if (s == TaskState::kUnscheduled) continue;
      if (first || p < brute.min_p) brute.min_p = p, brute_min_task = g;
      if (first || p > brute.max_p) brute.max_p = p;
      first = false;
      ++brute.live_tasks;
    }
    if (brute_min_task != min_task_) ++min_task_changes;
    min_task_ = brute_min_task;
    // Bit for bit: the certificate must pick exactly the extreme values.
    if (range.min_p != brute.min_p || range.max_p != brute.max_p ||
        range.live_tasks != brute.live_tasks)
      ++range_mismatches;

    suspend_one_running_leaf(engine);
  }

  int epochs = 0;
  std::size_t checked = 0;
  double max_rel_error = 0.0;
  int stale_values = 0;
  int range_mismatches = 0;
  int leaf_suspensions = 0;
  int snapshot_moves = 0;
  int min_task_changes = 0;  // epochs whose lowest-priority task changed

 private:
  void suspend_one_running_leaf(Engine& engine) {
    for (std::size_t k = 0; k < engine.node_count(); ++k) {
      const int node = static_cast<int>(k);
      for (const Gid w : engine.waiting(node)) {
        const TaskState ws = engine.state(w);
        if ((ws != TaskState::kWaiting && ws != TaskState::kSuspended) ||
            !engine.is_ready(w))
          continue;
        for (const Gid v : engine.running(node)) {
          if (engine.state(v) != TaskState::kRunning || !is_leaf(engine, v))
            continue;
          const double pv = priority_.at(v);
          const double pw = priority_.at(w);
          if (engine.try_preempt(node, v, w) != PreemptResult::kOk) continue;
          ++leaf_suspensions;
          if (priority_.at(v) != pv || priority_.at(w) != pw)
            ++snapshot_moves;
          return;
        }
      }
    }
  }

  static bool is_leaf(const Engine& engine, Gid g) {
    const JobId j = engine.job_of(g);
    for (TaskIndex c : engine.job(j).graph().children(engine.index_of(g)))
      if (engine.state(engine.gid(j, 0) + c) != TaskState::kFinished)
        return false;
    return true;
  }

  DspParams params_;
  DependencyPriority priority_;
  Gid min_task_ = kInvalidGid;
};

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

void expect_oracle_holds(const OracleProbe& probe) {
  char drift[32];
  std::snprintf(drift, sizeof drift, "%.3g", probe.max_rel_error);
  ::testing::Test::RecordProperty("max_rel_error", drift);
  ASSERT_GT(probe.epochs, 10);
  EXPECT_GT(probe.checked, 1000u);
  EXPECT_LE(probe.max_rel_error, 1e-9);
  EXPECT_EQ(probe.stale_values, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
  EXPECT_GT(probe.leaf_suspensions, 0);
  EXPECT_EQ(probe.snapshot_moves, 0);
}

TEST(PriorityOracleTest, LinesMatchDirectWalkEveryEpoch) {
  const JobSet jobs = WorkloadGenerator(contended_config(10), 311).generate();
  DspScheduler sched;
  OracleProbe probe{DspParams{}};
  Engine engine(ClusterSpec::ec2(4), jobs, sched, &probe, fast_params());
  engine.run();
  expect_oracle_holds(probe);
}

TEST(PriorityOracleTest, LinesMatchDirectWalkUnderNodeEvents) {
  // Outages and a slowdown change node rates under waiting tasks.
  const JobSet jobs = WorkloadGenerator(contended_config(8), 313).generate();
  DspScheduler sched;
  OracleProbe probe{DspParams{}};
  const ClusterSpec cluster = ClusterSpec::ec2(4);
  Engine engine(cluster, jobs, sched, &probe, fast_params());
  FailurePlan plan =
      FailurePlan::random_outages(cluster, 4 * kHour, 0.5, 2.0, 317);
  plan.add_slowdown(0, 10 * kSecond, 2 * kMinute, 0.5);
  engine.set_failure_plan(plan);
  engine.run();
  expect_oracle_holds(probe);
}

TEST(PriorityOracleTest, RangeFollowsLinesCrossingInACleanJob) {
  // Job 1 (root r feeding leaves a and b) waits behind job 0 through a
  // cross-job dependency, so no event touches it. Its deadline is long
  // gone, so every priority starts negative: r = 1.5 * (a + b) is lowest
  // and b (the smaller task) highest. The leaves rise 0.1/s
  // (omega2 - omega3) and r 0.3/s, so r crosses a, which becomes the
  // lowest while b stays the highest. Only the certificate's expiry can
  // notice: no rebuild happens.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 120000.0, 0, 30 * kMinute));
  {
    Job job(1, 3);
    job.task(0).size_mi = 1000.0;
    job.task(1).size_mi = 40000.0;
    job.task(2).size_mi = 10000.0;
    for (TaskIndex t = 0; t < 3; ++t)
      job.task(t).demand = Resources{1, 1, 0, 0};
    job.add_dependency(0, 1);
    job.add_dependency(0, 2);
    job.set_deadline(1 * kSecond);
    ASSERT_TRUE(job.finalize(1000.0));
    jobs.push_back(std::move(job));
  }
  RoundRobinScheduler sched;
  OracleProbe probe{DspParams{}};
  EngineParams ep;
  ep.period = 1 * kSecond;
  ep.epoch = 500 * kMillisecond;
  Engine engine(one_node(), std::move(jobs), sched, &probe, ep);
  ASSERT_TRUE(engine.add_job_dependency(0, 1));
  engine.run();
  ASSERT_GT(probe.epochs, 10);
  EXPECT_GE(probe.min_task_changes, 2);  // r first, then a
  EXPECT_LE(probe.max_rel_error, 1e-9);
  EXPECT_EQ(probe.stale_values, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
}

/// Counts, per epoch, the active jobs whose priority_version moved since
/// the previous epoch; compute_all must rebuild exactly those.
class RebuildProbe : public PreemptionPolicy {
 public:
  explicit RebuildProbe(const DspParams& params)
      : params_(params), priority_(params_) {}
  const char* name() const override { return "RebuildProbe"; }

  void on_epoch(Engine& engine) override {
    versions_.resize(engine.job_count(), 0);
    std::uint64_t dirty = 0;
    for (JobId j = 0; j < engine.job_count(); ++j) {
      if (!engine.job_scheduled(j) || engine.job_finished(j)) continue;
      if (versions_[j] == engine.priority_version(j)) {
        ++clean_job_epochs;
      } else {
        ++dirty;
        versions_[j] = engine.priority_version(j);
      }
    }
    const std::uint64_t before = priority_.rebuilds();
    priority_.compute_all(engine);
    if (priority_.rebuilds() - before != dirty) ++mismatches;
  }

  std::size_t clean_job_epochs = 0;
  int mismatches = 0;

 private:
  DspParams params_;  // DependencyPriority keeps a reference
  DependencyPriority priority_;
  std::vector<std::uint64_t> versions_;
};

TEST(PriorityOracleTest, TimeOnlyAdvanceRebuildsNoCleanJob) {
  const JobSet jobs = WorkloadGenerator(contended_config(10), 311).generate();
  DspScheduler sched;
  RebuildProbe probe{DspParams{}};
  Engine engine(ClusterSpec::ec2(4), jobs, sched, &probe, fast_params());
  engine.run();
  EXPECT_GT(probe.clean_job_epochs, 100u);  // the guard is not vacuous
  EXPECT_EQ(probe.mismatches, 0);
}

}  // namespace
}  // namespace dsp

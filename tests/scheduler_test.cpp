// Tests for DSP's offline scheduler (heuristic / relax-round / exact) and
// the Tetris/Aalo baseline schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "baselines/aalo.h"
#include "baselines/tetris.h"
#include "core/dsp_scheduler.h"
#include "core/dsp_system.h"
#include "obs/events.h"
#include "sim/failures.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_chain_job;
using testing::make_fig3_job;
using testing::make_independent_job;

ClusterSpec small_cluster(std::size_t n = 2, int slots = 2) {
  return ClusterSpec::uniform(n, 1800.0, 2.0, slots);
}

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

JobSet tiny_workload(std::size_t jobs, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.job_count = jobs;
  cfg.task_scale = 0.01;
  cfg.cpu_max = 2.0;  // fit the 2-slot uniform test nodes
  cfg.mem_max = 1.8;
  return WorkloadGenerator(cfg, seed).generate();
}

// ---------------------------------------------------------------------
// Dependency weights (ranking)
// ---------------------------------------------------------------------

TEST(DependencyWeightTest, LeavesWeighOne) {
  const Job job = make_chain_job(0, 3, 100.0);
  const auto w = DspScheduler::dependency_weights(job, 0.5);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0 + 1.5 * 1.0);
  EXPECT_DOUBLE_EQ(w[0], 1.0 + 1.5 * w[1]);
}

TEST(DependencyWeightTest, Fig3Ordering) {
  // The ranking behind the heuristic must reproduce the Fig. 3 ordering:
  // W(T11) > W(T6) > W(T1).
  const Job job = make_fig3_job(0);
  const auto w = DspScheduler::dependency_weights(job, 0.5);
  EXPECT_GT(w[11], w[5]);
  EXPECT_GT(w[5], w[0]);
}

TEST(DependencyWeightTest, MoreChildrenMoreWeight) {
  Job a(0, 3);
  Job b(1, 3);
  for (TaskIndex t = 0; t < 3; ++t) {
    a.task(t).size_mi = b.task(t).size_mi = 1.0;
    a.task(t).demand = b.task(t).demand = Resources{1, 1, 0, 0};
  }
  a.add_dependency(0, 1);  // one child
  b.add_dependency(0, 1);  // two children
  b.add_dependency(0, 2);
  ASSERT_TRUE(a.finalize(1000.0));
  ASSERT_TRUE(b.finalize(1000.0));
  EXPECT_GT(DspScheduler::dependency_weights(b, 0.5)[0],
            DspScheduler::dependency_weights(a, 0.5)[0]);
}

// ---------------------------------------------------------------------
// Heuristic scheduling through the engine
// ---------------------------------------------------------------------

TEST(DspSchedulerTest, PlacesEveryTaskExactlyOnce) {
  JobSet jobs = tiny_workload(6, 43);
  const std::size_t expected = total_tasks(jobs);
  DspScheduler sched;
  Engine engine(small_cluster(3, 2), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, expected);
  EXPECT_EQ(m.jobs_finished, 6u);
}

TEST(DspSchedulerTest, HeuristicCompletesWithZeroDisorders) {
  JobSet jobs = tiny_workload(6, 47);
  DspScheduler sched;
  DspParams params;
  DspPreemption preempt(params);
  Engine engine(small_cluster(3, 2), std::move(jobs), sched, &preempt,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.disorders, 0u);
}

TEST(DspSchedulerTest, ParallelismBeatsSerialExecution) {
  // 8 independent 1 s tasks on 4 nodes x 2 slots: heuristic must achieve
  // the 1 s optimum (perfect spread).
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 8, 1000.0));
  DspScheduler sched;
  Engine engine(small_cluster(4, 2), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().makespan, 1 * kSecond);
}

TEST(DspSchedulerTest, PrefersFasterNodes) {
  // Heterogeneous cluster: single task must land on the fast node.
  std::vector<NodeSpec> nodes;
  NodeSpec slow;
  slow.cpu_mips = 500.0;
  slow.mem_gb = 1.0;
  slow.capacity = Resources{4, 4, 720000, 1000};
  slow.slots = 4;
  NodeSpec fast = slow;
  fast.cpu_mips = 4000.0;
  nodes.push_back(slow);
  nodes.push_back(fast);
  ClusterSpec cluster(std::move(nodes));

  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 2000.0));
  DspScheduler sched;
  Engine engine(cluster, std::move(jobs), sched, nullptr, fast_params());
  const RunMetrics m = engine.run();
  // Fast node rate: 0.5*4000 + 0.5*1*100 = 2050 MIPS -> < 1 s.
  EXPECT_LT(m.makespan, from_seconds(1.0));
}

TEST(DspSchedulerTest, PlannedStartsRespectDependencies) {
  // Capture placements: a child's planned start must not precede its
  // parent's planned start.
  JobSet jobs;
  jobs.push_back(make_fig3_job(0, 5000.0, 0, 30 * kMinute));
  class CapturingDsp : public DspScheduler {
   public:
    std::vector<TaskPlacement> schedule(const std::vector<JobId>& pending,
                                        Engine& engine) override {
      auto result = DspScheduler::schedule(pending, engine);
      captured = result;
      engine_ptr = &engine;
      return result;
    }
    std::vector<TaskPlacement> captured;
    Engine* engine_ptr = nullptr;
  } sched;
  Engine engine(small_cluster(2, 2), std::move(jobs), sched, nullptr,
                fast_params());
  engine.run();
  ASSERT_FALSE(sched.captured.empty());
  std::vector<SimTime> start_of(19, kNoTime);
  for (const auto& p : sched.captured)
    start_of[sched.engine_ptr->index_of(p.task)] = p.planned_start;
  const Job job = make_fig3_job(0, 5000.0, 0, 30 * kMinute);
  for (TaskIndex t = 0; t < job.task_count(); ++t)
    for (TaskIndex c : job.graph().children(t))
      EXPECT_GE(start_of[c], start_of[t]);
}

TEST(DspSchedulerTest, ExactModeMatchesHeuristicOnTrivial) {
  // A 4-task chain on a 1-node/1-slot cluster: both modes give 4 s.
  auto run_mode = [](ScheduleMode mode) {
    JobSet jobs;
    jobs.push_back(make_chain_job(0, 4, 1000.0));
    DspScheduler::Options opts;
    opts.mode = mode;
    DspScheduler sched(opts);
    Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), std::move(jobs),
                  sched, nullptr, fast_params());
    return engine.run().makespan;
  };
  EXPECT_EQ(run_mode(ScheduleMode::kHeuristic), 4 * kSecond);
  EXPECT_EQ(run_mode(ScheduleMode::kExact), 4 * kSecond);
}

TEST(DspSchedulerTest, ExactModeFallsBackWhenTooLarge) {
  JobSet jobs = tiny_workload(3, 53);
  DspScheduler::Options opts;
  opts.mode = ScheduleMode::kExact;
  opts.exact_max_tasks = 4;  // workload is bigger than this
  DspScheduler sched(opts);
  Engine engine(small_cluster(2, 2), std::move(jobs), sched, nullptr,
                fast_params());
  engine.run();
  EXPECT_EQ(sched.last_mode(), ScheduleMode::kHeuristic);
}

TEST(DspSchedulerTest, HeuristicNearExactOnSmallInstances) {
  // Cross-validation: on instances the MILP can solve, the heuristic's
  // realized makespan is within 1.6x of the exact schedule's.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 7919);
    JobSet base;
    Job job(0, 5);
    for (TaskIndex t = 0; t < 5; ++t) {
      job.task(t).size_mi = rng.uniform(500.0, 3000.0);
      job.task(t).demand = Resources{1, 1, 0, 0};
    }
    job.add_dependency(0, 2);
    job.add_dependency(1, 3);
    if (rng.chance(0.5)) job.add_dependency(2, 4);
    ASSERT_TRUE(job.finalize(1000.0));
    base.push_back(std::move(job));

    auto run_mode = [&](ScheduleMode mode) {
      JobSet jobs = base;
      DspScheduler::Options opts;
      opts.mode = mode;
      opts.exact_max_tasks = 6;
      opts.exact_max_machines = 2;
      DspScheduler sched(opts);
      Engine engine(ClusterSpec::uniform(2, 1800.0, 2.0, 1), std::move(jobs),
                    sched, nullptr, fast_params());
      return engine.run().makespan;
    };
    const SimTime exact = run_mode(ScheduleMode::kExact);
    const SimTime heuristic = run_mode(ScheduleMode::kHeuristic);
    EXPECT_LE(heuristic, exact * 16 / 10 + kSecond) << "seed " << seed;
  }
}

TEST(DspSchedulerTest, RelaxRoundCompletesWorkload) {
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 4, 1000.0));
  jobs.push_back(make_independent_job(1, 3, 1500.0));
  DspScheduler::Options opts;
  opts.mode = ScheduleMode::kRelaxRound;
  DspScheduler sched(opts);
  Engine engine(small_cluster(2, 1), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 7u);
}

// ---------------------------------------------------------------------
// Heuristic oracle: the round's node table against the plain node scan
// ---------------------------------------------------------------------

// The heuristic round as a direct scan: every node, every task, reading
// rate, capacity and the earliest-free slot from the engine and the slot
// list each time. Kept as the reference the node table must reproduce
// bit for bit.
std::vector<TaskPlacement> reference_heuristic(const std::vector<JobId>& jobs,
                                               const Engine& engine,
                                               const DspScheduler::Options& o) {
  const std::size_t n_nodes = engine.node_count();
  const SimTime now = engine.now();
  std::vector<std::vector<double>> slot_free(n_nodes);
  for (std::size_t k = 0; k < n_nodes; ++k) {
    const int slots = engine.cluster().node(k).slots;
    const double backlog_s = engine.node_backlog_mi(static_cast<int>(k)) /
                             engine.node_rate(static_cast<int>(k)) /
                             std::max(1, slots);
    slot_free[k].assign(static_cast<std::size_t>(slots),
                        to_seconds(now) + backlog_s);
  }
  struct Item {
    double weight;
    SimTime deadline;
    Gid gid;
  };
  struct ItemLess {
    bool operator()(const Item& a, const Item& b) const {
      if (a.weight != b.weight) return a.weight < b.weight;
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.gid > b.gid;
    }
  };
  std::priority_queue<Item, std::vector<Item>, ItemLess> ready;
  std::map<Gid, double> finish_est, weight;
  std::map<Gid, std::size_t> unplaced;
  for (JobId j : jobs) {
    const Job& job = engine.job(j);
    const auto w = DspScheduler::dependency_weights(job, o.gamma);
    for (TaskIndex t = 0; t < job.task_count(); ++t) {
      const Gid g = engine.gid(j, t);
      weight[g] = w[t];
      unplaced[g] = job.graph().parents(t).size();
      if (unplaced[g] == 0) ready.push({w[t], job.task(t).deadline, g});
    }
  }
  std::vector<TaskPlacement> placements;
  while (!ready.empty()) {
    const Item item = ready.top();
    ready.pop();
    const JobId j = engine.job_of(item.gid);
    const TaskIndex t = engine.index_of(item.gid);
    const Job& job = engine.job(j);
    const Task& task = job.task(t);
    double dep_ready_s = to_seconds(now);
    for (TaskIndex p : job.graph().parents(t))
      dep_ready_s = std::max(dep_ready_s, finish_est[engine.gid(j, p)]);
    int best_node = -1;
    std::size_t best_slot = 0;
    double best_eft = 0.0, best_est = 0.0;
    for (std::size_t k = 0; k < n_nodes; ++k) {
      if (!engine.cluster().node(k).capacity.fits(task.demand)) continue;
      const auto min_it =
          std::min_element(slot_free[k].begin(), slot_free[k].end());
      const double est = std::max(dep_ready_s, *min_it);
      double eft = est + task.size_mi / engine.node_rate(static_cast<int>(k));
      if (o.locality_aware)
        eft += to_seconds(engine.transfer_time(item.gid, static_cast<int>(k)));
      if (best_node < 0 || eft < best_eft) {
        best_node = static_cast<int>(k);
        best_slot = static_cast<std::size_t>(min_it - slot_free[k].begin());
        best_eft = eft;
        best_est = est;
      }
    }
    if (best_node < 0) continue;
    slot_free[static_cast<std::size_t>(best_node)][best_slot] = best_eft;
    finish_est[item.gid] = best_eft;
    placements.push_back({item.gid, best_node, from_seconds(best_est)});
    for (TaskIndex c : job.graph().children(t)) {
      const Gid cg = engine.gid(j, c);
      if (--unplaced[cg] == 0) ready.push({weight[cg], job.task(c).deadline, cg});
    }
  }
  return placements;
}

// Runs the reference beside every heuristic round and counts differences.
class OracleDsp : public DspScheduler {
 public:
  explicit OracleDsp(Options o = {}) : DspScheduler(o), opts_(o) {}

  std::vector<TaskPlacement> schedule(const std::vector<JobId>& pending,
                                      Engine& engine) override {
    const auto expected = reference_heuristic(pending, engine, opts_);
    auto got = DspScheduler::schedule(pending, engine);
    ++rounds;
    placements += got.size();
    if (got.size() != expected.size()) ++mismatches;
    for (std::size_t i = 0; i < std::min(got.size(), expected.size()); ++i) {
      if (got[i].task != expected[i].task || got[i].node != expected[i].node ||
          got[i].planned_start != expected[i].planned_start)
        ++mismatches;
    }
    observe(engine, got);
    return got;
  }

  std::size_t rounds = 0;
  std::size_t placements = 0;
  std::size_t mismatches = 0;
  // Rounds in which the nodes ran at more than one rate; distinct
  // rate vectors seen across rounds.
  std::size_t mixed_rate_rounds = 0;
  std::set<std::vector<double>> rate_vectors;
  // Placed tasks that fit only some nodes, and that read remote inputs.
  std::size_t partial_fit_tasks = 0;
  std::size_t input_tasks = 0;
  std::size_t remote_placements = 0;
  // Rounds that start with every node idle (all nodes tie), and the nodes
  // their first placement went to.
  std::size_t idle_rounds = 0;
  std::set<int> idle_first_nodes;

 private:
  void observe(const Engine& engine, const std::vector<TaskPlacement>& got) {
    std::vector<double> rates;
    bool idle = true;
    for (std::size_t k = 0; k < engine.node_count(); ++k) {
      rates.push_back(engine.node_rate(static_cast<int>(k)));
      idle = idle && engine.node_backlog_mi(static_cast<int>(k)) == 0.0;
    }
    if (std::set<double>(rates.begin(), rates.end()).size() > 1)
      ++mixed_rate_rounds;
    rate_vectors.insert(rates);
    if (idle && !got.empty()) {
      ++idle_rounds;
      idle_first_nodes.insert(got.front().node);
    }
    for (const TaskPlacement& p : got) {
      const Task& task = engine.task_info(p.task);
      std::size_t fit = 0;
      for (const NodeSpec& n : engine.cluster().nodes())
        fit += n.capacity.fits(task.demand) ? 1 : 0;
      if (fit < engine.node_count()) ++partial_fit_tasks;
      if (!task.input_nodes.empty()) {
        ++input_tasks;
        if (!task.input_local_to(p.node)) ++remote_placements;
      }
    }
  }

  Options opts_;
};

TEST(HeuristicOracleTest, TwoNodeTypesMatchTheScan) {
  // Small nodes: 2 cores, 2 GB; big nodes: twice the rate, 4 cores, 8 GB.
  // Demands up to 3.5 cores / 6 GB fit only the big nodes.
  NodeSpec small;
  small.cpu_mips = 1800.0;
  small.mem_gb = 2.0;
  small.capacity = Resources{2, 2, 720000, 1000};
  small.slots = 2;
  NodeSpec big = small;
  big.cpu_mips = 3600.0;
  big.mem_gb = 8.0;
  big.capacity = Resources{4, 8, 720000, 1000};
  big.slots = 4;
  ClusterSpec cluster({small, big, small, big, small});

  WorkloadConfig cfg;
  cfg.job_count = 12;
  cfg.task_scale = 0.01;
  cfg.cpu_mu = 0.3;
  cfg.cpu_max = 3.5;
  cfg.mem_max = 6.0;
  OracleDsp sched;
  Engine engine(cluster, WorkloadGenerator(cfg, 71).generate(), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.jobs_finished, 12u);
  EXPECT_GT(sched.rounds, 3u);
  EXPECT_GT(sched.partial_fit_tasks, 0u);
  EXPECT_GT(sched.mixed_rate_rounds, 0u);
  EXPECT_EQ(sched.mismatches, 0u);
}

TEST(HeuristicOracleTest, SlowdownsBetweenRoundsMatchTheScan) {
  WorkloadConfig cfg;
  cfg.job_count = 16;
  cfg.task_scale = 0.01;
  cfg.max_arrival_rate = 20.0;
  cfg.min_arrival_rate = 10.0;
  const ClusterSpec cluster = ClusterSpec::ec2(4);
  FailurePlan plan;
  plan.add_slowdown(1, 5 * kSecond, 20 * kSecond, 0.5);
  plan.add_slowdown(3, 12 * kSecond, 40 * kSecond, 0.25);
  plan.add_slowdown(0, 30 * kSecond, 30 * kSecond, 0.5);
  OracleDsp sched;
  Engine engine(cluster, WorkloadGenerator(cfg, 73).generate(), sched, nullptr,
                fast_params());
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.jobs_finished, 16u);
  EXPECT_GE(sched.rate_vectors.size(), 3u);
  EXPECT_GT(sched.mixed_rate_rounds, 0u);
  EXPECT_EQ(sched.mismatches, 0u);
}

TEST(HeuristicOracleTest, InputReplicasMatchTheScan) {
  WorkloadConfig cfg;
  cfg.job_count = 10;
  cfg.task_scale = 0.01;
  cfg.locality_nodes = 6;
  cfg.locality_fraction = 1.0;
  cfg.locality_replicas = 2;
  cfg.input_mb_mu = 6.5;
  DspScheduler::Options opts;
  opts.locality_aware = true;
  OracleDsp sched(opts);
  Engine engine(ClusterSpec::ec2(6), WorkloadGenerator(cfg, 79).generate(),
                sched, nullptr, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.jobs_finished, 10u);
  EXPECT_GT(sched.input_tasks, 0u);
  EXPECT_GT(sched.remote_placements, 0u);
  EXPECT_LT(sched.remote_placements, sched.input_tasks);
  EXPECT_EQ(sched.mismatches, 0u);
}

TEST(HeuristicOracleTest, IdleClusterTiesMatchTheScan) {
  // Jobs arrive after the previous one drained, so every round starts
  // with all nodes idle and equal: the lowest node index must win.
  JobSet jobs;
  for (JobId j = 0; j < 4; ++j)
    jobs.push_back(make_independent_job(j, 3, 1000.0, j * 30 * kSecond));
  OracleDsp sched;
  Engine engine(small_cluster(4, 2), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.jobs_finished, 4u);
  EXPECT_EQ(sched.idle_rounds, 4u);
  EXPECT_EQ(sched.idle_first_nodes, std::set<int>{0});
  EXPECT_EQ(sched.mismatches, 0u);
}

// ---------------------------------------------------------------------
// Engine::apply_placements: mis-placements fall back to a live node
// ---------------------------------------------------------------------

TEST(ApplyPlacementsTest, MisplacedTasksEnqueueOnceAndFinish) {
  // Node 0 is too small for task 1, node 2 is down when the round runs.
  NodeSpec small;
  small.cpu_mips = 1800.0;
  small.mem_gb = 2.0;
  small.capacity = Resources{1, 2, 720000, 1000};
  small.slots = 2;
  NodeSpec big = small;
  big.capacity = Resources{4, 2, 720000, 1000};
  ClusterSpec cluster({small, big, big});

  Job job(0, 6);
  for (TaskIndex t = 0; t < 6; ++t) {
    job.task(t).size_mi = 1000.0;
    job.task(t).demand = Resources{1, 0.4, 0.02, 0.02};
  }
  job.task(1).demand.cpu = 2.0;
  job.set_arrival(2 * kSecond);
  ASSERT_TRUE(job.finalize(1000.0));
  JobSet jobs;
  jobs.push_back(std::move(job));

  class ScriptedScheduler : public Scheduler {
   public:
    const char* name() const override { return "Scripted"; }
    std::vector<TaskPlacement> schedule(const std::vector<JobId>& pending,
                                        Engine& engine) override {
      ++rounds;
      node2_down = !engine.node_up(2);
      const JobId j = pending.front();
      const SimTime now = engine.now();
      return {{engine.gid(j, 0), 1, now},      // placed ...
              {engine.gid(j, 0), 0, now},      // ... twice
              {engine.gid(j, 1), 0, now},      // too small
              {engine.gid(j, 2), 2, now},      // down
              {engine.gid(j, 3), -1, now},     // no such node
              {engine.gid(j, 5), 1, now}};     // task 4 omitted
    }
    int rounds = 0;
    bool node2_down = false;
  } sched;

  FailurePlan plan;
  plan.add_outage(2, 0, 1 * kHour);
  Engine engine(cluster, std::move(jobs), sched, nullptr, fast_params());
  engine.set_failure_plan(plan);
  obs::EventLog log;
  engine.set_event_log(&log);
  const RunMetrics m = engine.run();
  EXPECT_EQ(sched.rounds, 1);
  EXPECT_TRUE(sched.node2_down);
  EXPECT_EQ(m.jobs_finished, 1u);
  EXPECT_EQ(m.tasks_finished, 6u);

  std::vector<int> first_entries(6, 0);
  std::vector<int> first_node(6, -1);
  for (const obs::Event& e : log.snapshot()) {
    if (e.kind != obs::EventKind::kTaskEnqueue ||
        (e.flags & obs::kEventFlagRequeue) != 0)
      continue;
    ASSERT_LT(e.task, 6u);
    ++first_entries[e.task];
    first_node[e.task] = e.node;
  }
  EXPECT_EQ(first_entries, std::vector<int>(6, 1));
  EXPECT_EQ(first_node[0], 1);  // the first placement wins
  EXPECT_EQ(first_node[1], 1);  // only node 1 is live and big enough
  EXPECT_EQ(first_node[5], 1);
  for (TaskIndex t : {2, 3, 4}) EXPECT_NE(first_node[t], 2) << "task " << t;
}

// ---------------------------------------------------------------------
// Tetris
// ---------------------------------------------------------------------

TEST(TetrisTest, AlignmentScoreFavorsComplementaryTasks) {
  const Resources cap{4, 16, 100, 100};
  const Resources avail{4, 2, 100, 100};  // memory nearly exhausted
  const Resources cpu_heavy{3, 0.5, 0, 0};
  const Resources mem_heavy{0.5, 3, 0, 0};
  EXPECT_GT(TetrisScheduler::alignment(avail, cpu_heavy, cap),
            TetrisScheduler::alignment(avail, mem_heavy, cap));
}

TEST(TetrisTest, BothVariantsCompleteWorkload) {
  for (auto dep : {TetrisScheduler::Dependency::kNone,
                   TetrisScheduler::Dependency::kSimple}) {
    JobSet jobs = tiny_workload(4, 59);
    const std::size_t expected = total_tasks(jobs);
    TetrisScheduler sched(dep);
    Engine engine(small_cluster(3, 2), std::move(jobs), sched, nullptr,
                  fast_params());
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.tasks_finished, expected);
  }
}

TEST(TetrisTest, SimpleDependencyVariantHasNoDisorders) {
  JobSet jobs = tiny_workload(4, 61);
  TetrisScheduler sched(TetrisScheduler::Dependency::kSimple);
  Engine engine(small_cluster(3, 2), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().disorders, 0u);
}

TEST(TetrisTest, BlindVariantAccumulatesDisorders) {
  // Chains on a single node force the blind packer into unready picks.
  JobSet jobs;
  for (JobId j = 0; j < 4; ++j)
    jobs.push_back(make_chain_job(j, 6, 4000.0, 0));
  TetrisScheduler sched(TetrisScheduler::Dependency::kNone);
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 2), std::move(jobs), sched,
                nullptr, fast_params());
  EXPECT_GT(engine.run().disorders, 0u);
}

TEST(TetrisTest, Names) {
  EXPECT_STREQ(TetrisScheduler(TetrisScheduler::Dependency::kNone).name(),
               "TetrisW/oDep");
  EXPECT_STREQ(TetrisScheduler(TetrisScheduler::Dependency::kSimple).name(),
               "TetrisW/SimDep");
}

// ---------------------------------------------------------------------
// Aalo
// ---------------------------------------------------------------------

TEST(AaloTest, QueueLevelsEscalateWithService) {
  AaloScheduler::Options opts;
  opts.queue_count = 4;
  opts.first_threshold_mi = 100.0;
  opts.threshold_factor = 10.0;
  AaloScheduler aalo(opts);
  EXPECT_EQ(aalo.queue_level(0.0), 0);
  EXPECT_EQ(aalo.queue_level(99.0), 0);
  EXPECT_EQ(aalo.queue_level(100.0), 1);
  EXPECT_EQ(aalo.queue_level(999.0), 1);
  EXPECT_EQ(aalo.queue_level(1000.0), 2);
  EXPECT_EQ(aalo.queue_level(1.0e9), 3);  // clamps at the last queue
}

TEST(AaloTest, CompletesWorkloadWithoutDisorders) {
  JobSet jobs = tiny_workload(5, 67);
  const std::size_t expected = total_tasks(jobs);
  AaloScheduler sched;
  Engine engine(small_cluster(3, 2), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, expected);
  EXPECT_EQ(m.disorders, 0u);
}

TEST(AaloTest, FreshJobOutranksServicedJob) {
  // Job 0 is large and gets serviced first; when job 1 arrives later, its
  // level-0 tasks must be dispatched ahead of job 0's remaining tasks.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 6, 30000.0, 0));
  jobs.push_back(make_independent_job(1, 2, 1000.0, from_seconds(1.5)));
  AaloScheduler::Options opts;
  opts.first_threshold_mi = 20000.0;  // job 0 demotes after its first task
  AaloScheduler sched(opts);
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), std::move(jobs), sched,
                nullptr, fast_params());
  const RunMetrics m = engine.run();
  ASSERT_EQ(m.job_waiting_s.size(), 2u);
  // The small job (index 1 completes first -> first waiting entry) must
  // not have waited for all of job 0 (6 x 30 s).
  EXPECT_LT(m.job_waiting_s.front(), 120.0);
}

}  // namespace
}  // namespace dsp

#include "core/dsp_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <queue>
#include <tuple>

#include "util/log.h"

namespace dsp {

const char* to_string(ScheduleMode m) {
  switch (m) {
    case ScheduleMode::kHeuristic: return "heuristic";
    case ScheduleMode::kRelaxRound: return "relax-round";
    case ScheduleMode::kExact: return "exact";
    case ScheduleMode::kAuto: return "auto";
  }
  return "?";
}

std::vector<double> DspScheduler::dependency_weights(const Job& job,
                                                     double gamma) {
  const TaskGraph& graph = job.graph();
  std::vector<double> weight(job.task_count(), 1.0);
  const auto topo = graph.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskIndex t = *it;
    double w = 1.0;
    for (TaskIndex c : graph.children(t)) w += (gamma + 1.0) * weight[c];
    weight[t] = w;
  }
  return weight;
}

std::vector<TaskPlacement> DspScheduler::schedule(
    const std::vector<JobId>& jobs, Engine& engine) {
  ScheduleMode mode = options_.mode;
  if (mode == ScheduleMode::kAuto || mode == ScheduleMode::kExact ||
      mode == ScheduleMode::kRelaxRound) {
    // Size the would-be ILP instance.
    std::size_t tasks = 0;
    for (JobId j : jobs) tasks += engine.job(j).task_count();
    std::size_t machines = 0;
    for (std::size_t k = 0; k < engine.node_count(); ++k)
      machines += static_cast<std::size_t>(engine.cluster().node(k).slots);
    const bool exact_ok =
        tasks <= options_.exact_max_tasks && machines <= options_.exact_max_machines;
    if (mode == ScheduleMode::kAuto)
      mode = exact_ok ? ScheduleMode::kExact : ScheduleMode::kHeuristic;
    else if (mode == ScheduleMode::kExact && !exact_ok) {
      DSP_INFO("ILP instance too large for exact mode (%zu tasks, %zu machines);"
               " using heuristic", tasks, machines);
      mode = ScheduleMode::kHeuristic;
    }
  }
  last_mode_ = mode;
  std::vector<TaskPlacement> placements;
  switch (mode) {
    case ScheduleMode::kExact:
      placements = schedule_ilp(jobs, engine, /*exact=*/true);
      break;
    case ScheduleMode::kRelaxRound:
      placements = schedule_ilp(jobs, engine, /*exact=*/false);
      break;
    default:
      placements = schedule_heuristic(jobs, engine);
      break;
  }
  if (engine.event_log() != nullptr) {
    // Flight recorder: one kJobPlanned per scheduled job, with the number
    // of its tasks this round actually placed in the `a` payload.
    std::map<JobId, double> placed;
    for (const TaskPlacement& p : placements) ++placed[engine.job_of(p.task)];
    for (JobId j : jobs) {
      const auto it = placed.find(j);
      engine.emit_event({.kind = obs::EventKind::kJobPlanned,
                         .job = j,
                         .a = it == placed.end() ? 0.0 : it->second});
    }
  }
  return placements;
}

std::vector<TaskPlacement> DspScheduler::schedule_heuristic(
    const std::vector<JobId>& jobs, Engine& engine) const {
  const std::size_t n_nodes = engine.node_count();
  const double now_s = to_seconds(engine.now());

  // The round's node table. Rates, capacities and now() are fixed for the
  // whole round, so they are read once here. Each node's virtual slots are
  // seeded with its current backlog spread across them (an estimate of
  // when already-assigned work drains); `min_free`/`min_slot` cache the
  // node's first minimal slot (std::min_element's pick) and are refreshed
  // only for the node that takes a placement.
  struct NodeRow {
    Resources capacity;
    double rate = 0.0;
    double min_free = 0.0;
    std::size_t min_slot = 0;  // offset into slot_free
    std::size_t first_slot = 0;
    std::size_t slots = 0;
  };
  std::vector<NodeRow> table(n_nodes);
  std::vector<double> slot_free;
  for (std::size_t k = 0; k < n_nodes; ++k) {
    const NodeSpec& spec = engine.cluster().node(k);
    const double rate = engine.node_rate(static_cast<int>(k));
    NodeRow& row = table[k];
    row.capacity = spec.capacity;
    row.rate = rate;
    const double backlog_s = engine.node_backlog_mi(static_cast<int>(k)) /
                             rate / std::max(1, spec.slots);
    row.first_slot = slot_free.size();
    row.slots = static_cast<std::size_t>(spec.slots);
    row.min_free = now_s + backlog_s;
    row.min_slot = row.first_slot;
    slot_free.resize(slot_free.size() + row.slots, row.min_free);
  }
  const double remote_read_bw = engine.params().remote_read_bw_mbps;

  // Rank = (downstream weight desc, deadline asc, gid asc). Tasks become
  // eligible once all parents are placed; their start estimate then
  // respects the parents' estimated finishes (dependency awareness both in
  // ordering and in timing). `pos` is the task's job's index in `jobs`.
  struct Item {
    double weight;
    SimTime deadline;
    Gid gid;
    std::uint32_t pos;
  };
  struct ItemLess {
    bool operator()(const Item& a, const Item& b) const {
      if (a.weight != b.weight) return a.weight < b.weight;  // max-heap: larger first
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.gid > b.gid;
    }
  };
  std::priority_queue<Item, std::vector<Item>, ItemLess> ready;

  struct TaskAux {
    double finish_est = 0.0;
    std::uint32_t unplaced_parents = 0;
    double weight = 0.0;
  };
  // Flat aux array: gids of one job are contiguous, so the job's base
  // offset (by its position in `jobs`) plus the task index addresses it.
  std::vector<std::size_t> job_base(jobs.size());
  std::size_t total_tasks = 0;
  for (std::size_t pos = 0; pos < jobs.size(); ++pos) {
    job_base[pos] = total_tasks;
    total_tasks += engine.job(jobs[pos]).task_count();
  }
  std::vector<TaskAux> aux(total_tasks);
  std::vector<TaskPlacement> placements;
  placements.reserve(total_tasks);

  for (std::size_t pos = 0; pos < jobs.size(); ++pos) {
    const JobId j = jobs[pos];
    const Job& job = engine.job(j);
    const auto weights = dependency_weights(job, options_.gamma);
    const std::size_t base = job_base[pos];
    for (TaskIndex t = 0; t < job.task_count(); ++t) {
      aux[base + t].unplaced_parents =
          static_cast<std::uint32_t>(job.graph().parents(t).size());
      aux[base + t].weight = weights[t];
      if (aux[base + t].unplaced_parents == 0)
        ready.push({weights[t], job.task(t).deadline, engine.gid(j, t),
                    static_cast<std::uint32_t>(pos)});
    }
  }

  while (!ready.empty()) {
    const Item item = ready.top();
    ready.pop();
    const JobId j = jobs[item.pos];
    const TaskIndex t = engine.index_of(item.gid);
    const Job& job = engine.job(j);
    const std::size_t base = job_base[item.pos];
    const Task& task = job.task(t);

    // Earliest start from dependency estimates.
    double dep_ready_s = now_s;
    for (TaskIndex p : job.graph().parents(t))
      dep_ready_s = std::max(dep_ready_s, aux[base + p].finish_est);

    // The remote-fetch seconds added on nodes that do not hold the task's
    // input (Engine::transfer_time).
    const bool transfer = options_.locality_aware && !task.input_nodes.empty();
    const double remote_s =
        transfer ? to_seconds(from_seconds(task.input_mb / remote_read_bw))
                 : 0.0;

    // Pick the node minimizing estimated finish time; the lowest index
    // wins a tie.
    std::size_t best_node = n_nodes;
    double best_eft = 0.0, best_est = 0.0;
    for (std::size_t k = 0; k < n_nodes; ++k) {
      const NodeRow& row = table[k];
      if (!row.capacity.fits(task.demand)) continue;
      const double est = std::max(dep_ready_s, row.min_free);
      double eft = est + task.size_mi / row.rate;
      if (transfer && !task.input_local_to(static_cast<int>(k))) eft += remote_s;
      if (best_node == n_nodes || eft < best_eft) {
        best_node = k;
        best_eft = eft;
        best_est = est;
      }
    }
    if (best_node == n_nodes) {
      DSP_ERROR("task %u fits no node; skipping placement", item.gid);
      continue;
    }
    NodeRow& best = table[best_node];
    slot_free[best.min_slot] = best_eft;
    const auto node_begin =
        slot_free.begin() + static_cast<std::ptrdiff_t>(best.first_slot);
    const auto min_it = std::min_element(
        node_begin, node_begin + static_cast<std::ptrdiff_t>(best.slots));
    best.min_free = *min_it;
    best.min_slot = static_cast<std::size_t>(min_it - slot_free.begin());
    aux[base + t].finish_est = best_eft;
    placements.push_back(TaskPlacement{item.gid, static_cast<int>(best_node),
                                       from_seconds(best_est)});

    for (TaskIndex c : job.graph().children(t)) {
      TaskAux& ca = aux[base + c];
      assert(ca.unplaced_parents > 0);
      if (--ca.unplaced_parents == 0)
        ready.push({ca.weight, job.task(c).deadline, engine.gid(j, c),
                    item.pos});
    }
  }
  return placements;
}

std::vector<TaskPlacement> DspScheduler::schedule_ilp(
    const std::vector<JobId>& jobs, Engine& engine, bool exact) {
  const SimTime now = engine.now();

  // Build the IlpProblem: tasks flattened across jobs, machines = slot
  // expansion of nodes.
  IlpProblem problem;
  problem.recovery_s = options_.recovery_s;
  std::vector<Gid> task_of_index;
  std::vector<std::size_t> index_of_gid_base;  // per pending job
  {
    std::size_t idx = 0;
    for (JobId j : jobs) {
      index_of_gid_base.push_back(idx);
      const Job& job = engine.job(j);
      for (TaskIndex t = 0; t < job.task_count(); ++t) {
        IlpTask it;
        it.size_mi = job.task(t).size_mi;
        const SimTime dl = job.task(t).deadline;
        it.deadline_s = dl == kMaxTime
                            ? std::numeric_limits<double>::infinity()
                            : std::max(0.0, to_seconds(dl - now));
        for (TaskIndex p : job.graph().parents(t))
          it.parents.push_back(
              static_cast<int>(index_of_gid_base.back() + p));
        if (options_.preemption_padding) {
          // An empty (or fully degraded) cluster has mean_rate() == 0;
          // no machine exists to preempt on, so pad nothing.
          const double mean_rate = engine.cluster().mean_rate();
          const double exec_ref =
              mean_rate > 0.0 ? job.task(t).size_mi / mean_rate : 0.0;
          it.n_preempt = estimate_preemptions(exec_ref, it.deadline_s);
        }
        problem.tasks.push_back(std::move(it));
        task_of_index.push_back(engine.gid(j, t));
        ++idx;
      }
    }
  }
  std::vector<int> machine_node;
  for (std::size_t k = 0; k < engine.node_count(); ++k) {
    for (int s = 0; s < engine.cluster().node(k).slots; ++s) {
      problem.machine_rates.push_back(engine.node_rate(static_cast<int>(k)));
      machine_node.push_back(static_cast<int>(k));
    }
  }

  IlpScheduleResult result;
  if (exact) {
    if (exact_solver_ == nullptr) {
      lp::MilpSolver::Options mo;
      mo.warm_start = options_.warm_start;
      mo.parallel_nodes = options_.ilp_parallel_nodes;
      mo.threads = options_.ilp_threads;
      exact_solver_ = std::make_unique<lp::MilpSolver>(mo);
    }
    result = solve_ilp_schedule(problem, IlpSolveOptions{}, *exact_solver_);
  } else {
    result = solve_relax_round(
        problem, options_.warm_start ? &relax_basis_ : nullptr);
  }
  if (!result.ok()) {
    DSP_WARN("ILP solve failed (%s); falling back to heuristic",
             lp::to_string(result.status));
    last_mode_ = ScheduleMode::kHeuristic;
    return schedule_heuristic(jobs, engine);
  }

  std::vector<TaskPlacement> placements;
  placements.reserve(problem.tasks.size());
  for (std::size_t i = 0; i < problem.tasks.size(); ++i) {
    TaskPlacement p;
    p.task = task_of_index[i];
    p.node = machine_node[static_cast<std::size_t>(result.machine_of[i])];
    p.planned_start = now + from_seconds(result.start_s[i]);
    placements.push_back(p);
  }
  return placements;
}

}  // namespace dsp

#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/log.h"

namespace dsp {

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::kUnscheduled: return "unscheduled";
    case TaskState::kWaiting: return "waiting";
    case TaskState::kRunning: return "running";
    case TaskState::kHoarding: return "hoarding";
    case TaskState::kSuspended: return "suspended";
    case TaskState::kFinished: return "finished";
  }
  return "?";
}

const char* to_string(PreemptResult r) {
  switch (r) {
    case PreemptResult::kOk: return "ok";
    case PreemptResult::kIncomingNotReady: return "incoming-not-ready";
    case PreemptResult::kIncomingNotWaiting: return "incoming-not-waiting";
    case PreemptResult::kVictimNotRunning: return "victim-not-running";
    case PreemptResult::kNoResources: return "no-resources";
  }
  return "?";
}

namespace {

// The flight recorder stores node ids as int16 to keep obs::Event compact;
// Source of Engine::run_id; engines may be built on several threads.
std::atomic<std::uint64_t> next_run_id{1};

// ClusterSpec::validate caps clusters at kMaxNodes so every id fits.
std::int16_t n16(int node) { return static_cast<std::int16_t>(node); }

}  // namespace

// Default dispatch rule: first ready, fitting task in planned-start order.
Gid Scheduler::select_next(int node, Engine& engine,
                           const std::vector<std::uint8_t>& excluded) {
  Gid next = kInvalidGid;
  engine.ready_waiting(node).for_each_fitting(
      engine.available(node), [&](Gid g) {
        if (excluded[g]) return false;
        next = g;
        return true;
      });
  return next;
}

Engine::Engine(ClusterSpec cluster, JobSet jobs, Scheduler& scheduler,
               PreemptionPolicy* preempt, EngineParams params)
    : cluster_(std::move(cluster)),
      jobs_(std::move(jobs)),
      scheduler_(scheduler),
      preempt_(preempt),
      params_(params),
      run_id_(next_run_id.fetch_add(1, std::memory_order_relaxed)) {
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    assert(jobs_[j].finalized() && "jobs must be finalized before simulation");
    // Engine addresses jobs by their position; keep ids consistent.
    jobs_[j].set_id(static_cast<JobId>(j));
  }
  tasks_.init(jobs_);
  dispatch_excluded_.assign(tasks_.task_count(), 0);
  nodes_.init(cluster_);

  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    push_event(jobs_[j].arrival(), EventCalendar::Kind::kArrival,
               static_cast<Gid>(j), 0);
    first_arrival_ = std::min(first_arrival_, jobs_[j].arrival());
  }
  if (jobs_.empty()) first_arrival_ = 0;

  // Period ticks start with the first arrival; epoch ticks only when an
  // online policy is installed.
  push_event(first_arrival_, EventCalendar::Kind::kPeriod, kInvalidGid, 0);
  if (preempt_)
    push_event(first_arrival_ + params_.epoch, EventCalendar::Kind::kEpoch,
               kInvalidGid, 0);
}

double Engine::remaining_mi(Gid g) const {
  const TaskRt& r = tasks_.rt(g);
  double executed = r.executed_mi;
  // A running task's progress advances continuously; account for the
  // portion executed since its last dispatch.
  if (r.state == TaskState::kRunning) {
    const SimTime worked = now_ - r.last_dispatch - r.current_overhead;
    if (worked > 0)
      executed += to_seconds(worked) * node_rate(r.node);
  }
  return std::max(0.0, task_info(g).size_mi - executed);
}

SimTime Engine::remaining_time(Gid g) const {
  const int node = tasks_.rt(g).node;
  const double rate = node >= 0 ? node_rate(node) : cluster_.mean_rate();
  // A fully-degraded node (speed factor 0) or an empty cluster offers no
  // progress: remaining time saturates instead of from_seconds(inf).
  if (rate <= 0.0) return kMaxTime;
  return from_seconds(remaining_mi(g) / rate);
}

SimTime Engine::waiting_time(Gid g) const {
  const TaskRt& r = tasks_.rt(g);
  if ((r.state == TaskState::kWaiting || r.state == TaskState::kSuspended) &&
      r.waiting_since != kNoTime)
    return now_ - r.waiting_since;
  return 0;
}

Engine::LeafInputs Engine::leaf_inputs(Gid g) const {
  const TaskRt& r = tasks_.rt(g);
  const Task& info = task_info(g);
  double executed = r.executed_mi;
  double wait_s = r.total_wait_s;
  if (r.state == TaskState::kRunning) {
    const SimTime worked = now_ - r.last_dispatch - r.current_overhead;
    if (worked > 0) executed += to_seconds(worked) * node_rate(r.node);
  } else if ((r.state == TaskState::kWaiting ||
              r.state == TaskState::kSuspended) &&
             r.waiting_since != kNoTime) {
    wait_s += to_seconds(now_ - r.waiting_since);
  }
  const double rate = r.node >= 0 ? node_rate(r.node) : cluster_.mean_rate();
  const double rem_mi = std::max(0.0, info.size_mi - executed);
  // Round through SimTime exactly as remaining_time does, so the fused
  // inputs are bit-identical to the three separate accessors. Zero rate
  // saturates t_rem the same way remaining_time does; the allowance then
  // saturates negative instead of wrapping deadline - now - kMaxTime
  // below INT64_MIN.
  const SimTime t_rem = rate > 0.0 ? from_seconds(rem_mi / rate) : kMaxTime;
  const SimTime t_allow =
      t_rem == kMaxTime ? -kMaxTime : info.deadline - now_ - t_rem;
  return {to_seconds(t_rem), wait_s, to_seconds(t_allow)};
}

Engine::LeafTerms Engine::leaf_terms(Gid g, SimTime anchor) const {
  const TaskRt& r = tasks_.rt(g);
  assert(r.state != TaskState::kRunning);
  const Task& info = task_info(g);
  const bool waiting = (r.state == TaskState::kWaiting ||
                        r.state == TaskState::kSuspended) &&
                       r.waiting_since != kNoTime;
  const double rate = r.node >= 0 ? node_rate(r.node) : cluster_.mean_rate();
  const double rem_mi = std::max(0.0, info.size_mi - r.executed_mi);
  // The same rounding and saturation as leaf_inputs; the time differences
  // stay integral until the final conversion.
  const SimTime t_rem = rate > 0.0 ? from_seconds(rem_mi / rate) : kMaxTime;
  LeafTerms out{};
  out.t_rem_s = to_seconds(t_rem);
  out.t_wait_s = r.total_wait_s;
  if (waiting) {
    out.t_wait_s += to_seconds(anchor - r.waiting_since);
    out.wait_slope = 1.0;
  }
  if (t_rem == kMaxTime) {
    out.t_allow_s = to_seconds(-kMaxTime);
  } else {
    out.t_allow_s = to_seconds(info.deadline - anchor - t_rem);
    out.allow_slope = -1.0;
  }
  return out;
}

bool Engine::depends_on(Gid dependent, Gid precedent) const {
  const JobId j = tasks_.job_of(dependent);
  if (j != tasks_.job_of(precedent)) return false;
  assert(j < jobs_.size());
  return jobs_[j].graph().depends_on(tasks_.index_of(dependent),
                                     tasks_.index_of(precedent));
}

RunMetrics Engine::run() {
  if (lifecycle_ != Lifecycle::kIdle) {
    // Re-running would replay arrivals against consumed calendar/runtime
    // state and silently corrupt every metric. Fail loudly instead.
    DSP_ERROR(
        "Engine::run() called on a %s engine: an Engine instance is "
        "single-shot. Construct a fresh Engine (or use run_scenario) for "
        "each run.",
        lifecycle_ == Lifecycle::kRunning ? "still-running" : "finished");
    std::abort();
  }
  lifecycle_ = Lifecycle::kRunning;
  if (events_log_ == nullptr) {
    // DSP_EVENT_LOG turns the recorder on for any run without code
    // changes (examples, benches, the report-smoke CI stage).
    owned_events_ = obs::EventLog::from_env();
    events_log_ = owned_events_.get();
  }
  emit_event({.kind = obs::EventKind::kRunInfo,
              .job = static_cast<std::uint32_t>(jobs_.size()),
              .task = static_cast<Gid>(tasks_.task_count()),
              .a = static_cast<double>(cluster_.size()),
              .b = static_cast<double>(cluster_.total_slots())});
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t events_processed = 0;

  while (!calendar_.empty()) {
    const EventCalendar::Entry e = calendar_.pop();
    if (e.time > params_.horizon) {
      DSP_WARN("engine: horizon %lld us exceeded; aborting with %zu/%zu jobs done",
               static_cast<long long>(params_.horizon), finished_jobs_,
               jobs_.size());
      break;
    }
    assert(e.time >= now_);
    now_ = e.time;
    ++events_processed;
    switch (e.kind) {
      case EventCalendar::Kind::kArrival:
        on_arrival(static_cast<JobId>(e.gid));
        break;
      case EventCalendar::Kind::kPeriod: on_period(); break;
      case EventCalendar::Kind::kEpoch: on_epoch(); break;
      case EventCalendar::Kind::kFinish: on_finish(e.gid, e.token); break;
      case EventCalendar::Kind::kHoardTimeout:
        on_hoard_timeout(e.gid, e.token);
        break;
      case EventCalendar::Kind::kNodeEvent: on_node_event(e.gid); break;
    }
    if (all_jobs_finished()) break;
  }

  if (!all_jobs_finished())
    DSP_WARN("engine: finished with %zu/%zu jobs incomplete",
             jobs_.size() - finished_jobs_, jobs_.size());

  metrics_.makespan = std::max<SimTime>(0, last_finish_ - first_arrival_);
  double busy = 0.0;
  for (std::size_t k = 0; k < nodes_.size(); ++k)
    busy += nodes_.node(static_cast<int>(k)).busy_us;
  const double slot_time = static_cast<double>(metrics_.makespan) *
                           static_cast<double>(cluster_.total_slots());
  metrics_.slot_utilization = slot_time > 0.0 ? busy / slot_time : 0.0;
  metrics_.sim_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  DSP_COUNT_N("engine.events", events_processed);
  DSP_COUNT("engine.runs");
  DSP_OBSERVE("engine.run_s", metrics_.sim_wall_s);
  lifecycle_ = Lifecycle::kDone;
  return metrics_;
}

void Engine::record_preempt_decision(obs::PreemptDecision d) {
  d.time = now_;
  ++metrics_.preempt_evaluations;
  switch (d.outcome) {
    case obs::PreemptOutcome::kFired:
      // The successful try_preempt already counted metrics_.preemptions.
      DSP_COUNT("preempt.fired");
      break;
    case obs::PreemptOutcome::kSuppressedPP:
      ++metrics_.suppressed_preemptions;
      DSP_COUNT("preempt.suppressed_pp");
      break;
    case obs::PreemptOutcome::kBlockedByDependency:
      ++metrics_.preempt_blocked_dependency;
      DSP_COUNT("preempt.blocked_c2");
      break;
    case obs::PreemptOutcome::kNoVictim:
      ++metrics_.preempt_no_victim;
      DSP_COUNT("preempt.no_victim");
      break;
  }
  if (audit_) audit_->record(d);
  emit_event({.kind = obs::EventKind::kPreemptDecision,
              .flags = static_cast<std::uint8_t>(
                  (d.urgent ? obs::kEventFlagUrgent : 0) |
                  (d.pp ? obs::kEventFlagPP : 0) |
                  (static_cast<std::uint8_t>(d.outcome)
                   << obs::kEventFlagOutcomeShift)),
              .job = d.candidate == kInvalidGid ? ~std::uint32_t{0}
                                                : tasks_.job_of(d.candidate),
              .task = d.candidate,
              .task2 = d.victim,
              .node = n16(d.node),
              .a = d.candidate_priority,
              .b = d.victim_priority});
}

void Engine::on_arrival(JobId job) {
  pending_jobs_.push_back(job);
  emit_event({.kind = obs::EventKind::kJobArrival,
              .job = job,
              .a = static_cast<double>(jobs_[job].task_count())});
}

bool Engine::add_job_dependency(JobId predecessor, JobId successor) {
  assert(lifecycle_ == Lifecycle::kIdle &&
         "declare job dependencies before run()");
  if (predecessor >= jobs_.size() || successor >= jobs_.size() ||
      predecessor == successor) {
    DSP_ERROR("invalid job dependency %u -> %u", predecessor, successor);
    return false;
  }
  // Cycle check: DFS from `successor` along existing successor edges must
  // not reach `predecessor`'s... (i.e. predecessor must not be reachable
  // FROM successor).
  std::vector<JobId> stack{successor};
  std::vector<std::uint8_t> seen(jobs_.size(), 0);
  seen[successor] = 1;
  while (!stack.empty()) {
    const JobId j = stack.back();
    stack.pop_back();
    if (j == predecessor) {
      DSP_WARN("job dependency %u -> %u would create a cycle; ignored",
               predecessor, successor);
      return false;
    }
    for (JobId s : tasks_.job_rt(j).successor_jobs)
      if (!seen[s]) {
        seen[s] = 1;
        stack.push_back(s);
      }
  }
  tasks_.job_rt(predecessor).successor_jobs.push_back(successor);
  ++tasks_.job_rt(successor).pred_jobs_remaining;
  return true;
}

void Engine::set_failure_plan(const FailurePlan& plan) {
  assert(lifecycle_ == Lifecycle::kIdle &&
         "install the failure plan before run()");
  for (const NodeEvent& event : plan.sorted_events()) {
    if (event.node < 0 || static_cast<std::size_t>(event.node) >= cluster_.size()) {
      DSP_ERROR("failure plan references unknown node %d", event.node);
      continue;
    }
    failure_events_.push_back(event);
    push_event(event.at, EventCalendar::Kind::kNodeEvent,
               static_cast<Gid>(failure_events_.size() - 1), 0);
  }
}

void Engine::on_node_event(std::size_t index) {
  const NodeEvent& event = failure_events_[index];
  ClusterState::Node& n = nodes_.node_mut(event.node);
  switch (event.kind) {
    case NodeEvent::Kind::kFail:
      if (n.up) fail_node(event.node);
      break;
    case NodeEvent::Kind::kRecover:
      if (!n.up) recover_node(event.node);
      break;
    case NodeEvent::Kind::kSlowdown:
      if (n.up && n.speed_factor != event.factor) {
        rebase_running(event.node);
        n.speed_factor = event.factor;
        rebase_running(event.node);  // reschedule finishes at the new rate
      }
      break;
    case NodeEvent::Kind::kRestoreSpeed:
      if (n.up && n.speed_factor != 1.0) {
        rebase_running(event.node);
        n.speed_factor = 1.0;
        rebase_running(event.node);
      }
      break;
  }
  // Any node event can change the effective rate seen by tasks placed on
  // the node (including waiting ones), shifting their t_rem. The recorder
  // logs the event as applied: the post-event speed factor travels in `a`.
  emit_event({.kind = recorder_event_kind(event.kind),
              .node = n16(event.node),
              .a = n.speed_factor});
  tasks_.touch_priority_all();
}

void Engine::rebase_running(int node) {
  ClusterState::Node& n = nodes_.node_mut(node);
  for (Gid g : n.running) {
    TaskRt& r = tasks_.rt(g);
    if (r.state != TaskState::kRunning) continue;  // hoarders have no event
    // Bank progress at the *current* effective rate, then re-arm the
    // finish event for the remaining work.
    const SimTime elapsed = now_ - r.last_dispatch;
    const SimTime worked = std::max<SimTime>(0, elapsed - r.current_overhead);
    r.executed_mi += to_seconds(worked) * node_rate(node);
    r.executed_mi = std::min(r.executed_mi, task_info(g).size_mi);
    n.busy_us += static_cast<double>(elapsed);
    const SimTime overhead_left =
        std::max<SimTime>(0, r.current_overhead - elapsed);
    r.last_dispatch = now_;
    r.current_overhead = overhead_left;
    ++r.token;
    const double remaining =
        std::max(0.0, task_info(g).size_mi - r.executed_mi);
    push_event(now_ + overhead_left + from_seconds(remaining / node_rate(node)),
               EventCalendar::Kind::kFinish, g, r.token);
  }
}

void Engine::fail_node(int node) {
  ClusterState::Node& n = nodes_.node_mut(node);
  ++metrics_.node_failures;
  n.up = false;

  // Kill occupants. With surviving checkpoints a task keeps the progress
  // it had checkpointed; otherwise everything re-executes.
  const std::vector<Gid> occupants = n.running;
  for (Gid g : occupants) {
    TaskRt& r = tasks_.rt(g);
    ++metrics_.tasks_killed_by_failure;
    if (r.state == TaskState::kRunning) {
      const SimTime elapsed = now_ - r.last_dispatch;
      const SimTime worked = std::max<SimTime>(0, elapsed - r.current_overhead);
      const double progress = to_seconds(worked) * node_rate(node);
      if (params_.checkpoints_survive_failure) {
        r.executed_mi = std::min(r.executed_mi + progress,
                                 task_info(g).size_mi);
        // The un-checkpointed tail since the last event is conservatively
        // kept: continuous checkpointing.
      } else {
        metrics_.work_lost_mi += r.executed_mi + progress;
        r.executed_mi = 0.0;
      }
      n.busy_us += static_cast<double>(elapsed);
      emit_event({.kind = obs::EventKind::kTaskPreempt,
                  .flags = params_.checkpoints_survive_failure
                               ? obs::kEventFlagKeptProgress
                               : std::uint8_t{0},
                  .job = tasks_.job_of(g),
                  .task = g,
                  .node = n16(node)});
    } else if (r.state == TaskState::kHoarding) {
      emit_event({.kind = obs::EventKind::kHoardEvict,
                  .job = tasks_.job_of(g),
                  .task = g,
                  .node = n16(node)});
    }
    ++r.token;
    ++r.preemptions;
    r.state = TaskState::kSuspended;
    n.available += task_info(g).demand;
    ++n.free_slots;
    enqueue_waiting(node, g);
  }
  n.running.clear();

  // Re-place everything queued on the dead node onto live nodes.
  const std::vector<Gid> stranded(n.waiting.begin(), n.waiting.end());
  for (Gid g : stranded) replace_waiting_task(g);
}

void Engine::recover_node(int node) {
  ClusterState::Node& n = nodes_.node_mut(node);
  n.up = true;
  n.speed_factor = 1.0;
  fill_slots(node);
}

void Engine::replace_waiting_task(Gid g) {
  TaskRt& r = tasks_.rt(g);
  const int old_node = r.node;
  int best = -1;
  double best_backlog = 0.0;
  for (std::size_t k = 0; k < cluster_.size(); ++k) {
    const int kn = static_cast<int>(k);
    if (!nodes_.node(kn).up || kn == old_node) continue;
    if (!cluster_.node(k).capacity.fits(task_info(g).demand)) continue;
    if (best < 0 || nodes_.node(kn).backlog_mi < best_backlog) {
      best = kn;
      best_backlog = nodes_.node(kn).backlog_mi;
    }
  }
  if (best < 0) return;  // no live node fits: wait for recovery
  nodes_.remove_waiting(old_node, g, tasks_);
  ClusterState::Node& old_n = nodes_.node_mut(old_node);
  old_n.backlog_mi = std::max(0.0, old_n.backlog_mi - task_info(g).size_mi);
  r.node = best;
  tasks_.touch_priority(g);
  nodes_.node_mut(best).backlog_mi += task_info(g).size_mi;
  nodes_.insert_waiting(best, g, tasks_);
  emit_event({.kind = obs::EventKind::kTaskMigrate,
              .flags = obs::kEventFlagFailover,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(old_node),
              .node2 = n16(best)});
  if (nodes_.node(best).free_slots > 0) fill_slots(best);
}

void Engine::on_period() {
  if (!pending_jobs_.empty()) {
    std::vector<JobId> pending;
    pending.swap(pending_jobs_);
    std::vector<TaskPlacement> placements;
    {
      DSP_PROFILE("sched.round_s");
      placements = scheduler_.schedule(pending, *this);
    }
    emit_event({.kind = obs::EventKind::kScheduleRound,
                .a = static_cast<double>(pending.size()),
                .b = static_cast<double>(placements.size())});
    apply_placements(placements, pending);
    fill_all_slots();
  }
  if (!all_jobs_finished())
    push_event(now_ + params_.period, EventCalendar::Kind::kPeriod,
               kInvalidGid, 0);
}

void Engine::on_epoch() {
  if (preempt_) {
    // Bump the ordinal before emitting so every event of this epoch —
    // the boundary marker included — carries the new index.
    ++epoch_index_;
    emit_event({.kind = obs::EventKind::kEpoch,
                .a = static_cast<double>(epoch_index_)});
    {
      DSP_PROFILE("engine.epoch_s");
      preempt_->on_epoch(*this);
    }
    fill_all_slots();
    if (!all_jobs_finished())
      push_event(now_ + params_.epoch, EventCalendar::Kind::kEpoch,
                 kInvalidGid, 0);
  }
}

void Engine::apply_placements(const std::vector<TaskPlacement>& placements,
                              const std::vector<JobId>& pending) {
  // Mark expected tasks.
  for (JobId j : pending) tasks_.job_rt(j).scheduled = true;

  // A task leaves kUnscheduled on its first enqueue, so the state test
  // rejects a second placement of the same task, and the fallback pass
  // below sees exactly the tasks no placement was applied to.
  for (const auto& p : placements) {
    if (p.task >= tasks_.task_count() || p.node < 0 ||
        static_cast<std::size_t>(p.node) >= cluster_.size()) {
      DSP_ERROR("scheduler %s produced an invalid placement (task %u node %d)",
                scheduler_.name(), p.task, p.node);
      continue;
    }
    if (tasks_.rt(p.task).state != TaskState::kUnscheduled) {
      DSP_ERROR("scheduler %s placed task %u twice", scheduler_.name(), p.task);
      continue;
    }
    const auto& cap = cluster_.node(static_cast<std::size_t>(p.node)).capacity;
    if (!cap.fits(task_info(p.task).demand)) {
      DSP_WARN("placement of task %u exceeds node %d capacity; re-placing",
               p.task, p.node);
      continue;  // falls through to the fallback pass below
    }
    if (!nodes_.node(p.node).up) {
      DSP_DEBUG("placement of task %u targets down node %d; re-placing",
                p.task, p.node);
      continue;  // fallback pass places it on a live node
    }
    tasks_.rt(p.task).node = p.node;
    tasks_.rt(p.task).planned_start = p.planned_start;
    enqueue_waiting(p.node, p.task);
  }

  // Fallback: any unplaced task of a pending job goes to the least-loaded
  // node that can hold it. Keeps runs comparable even when a scheduler
  // mis-places (logged above).
  for (JobId j : pending) {
    for (TaskIndex t = 0; t < jobs_[j].task_count(); ++t) {
      const Gid g = gid(j, t);
      if (tasks_.rt(g).state != TaskState::kUnscheduled) continue;
      int best = -1;
      double best_backlog = 0.0;
      for (std::size_t k = 0; k < cluster_.size(); ++k) {
        if (!nodes_.node(static_cast<int>(k)).up) continue;
        if (!cluster_.node(k).capacity.fits(task_info(g).demand)) continue;
        const double backlog = nodes_.node(static_cast<int>(k)).backlog_mi;
        if (best < 0 || backlog < best_backlog) {
          best = static_cast<int>(k);
          best_backlog = backlog;
        }
      }
      if (best < 0) {
        DSP_ERROR("task %u fits no node; it will never run", g);
        continue;
      }
      DSP_DEBUG("fallback placement: task %u -> node %d", g, best);
      tasks_.rt(g).node = best;
      tasks_.rt(g).planned_start = now_;
      enqueue_waiting(best, g);
    }
  }
}

void Engine::enqueue_waiting(int node, Gid g) {
  TaskRt& r = tasks_.rt(g);
  const bool first_entry = r.state == TaskState::kUnscheduled;
  if (first_entry) {
    r.state = TaskState::kWaiting;
    nodes_.node_mut(node).backlog_mi += task_info(g).size_mi;
  }
  emit_event({.kind = obs::EventKind::kTaskEnqueue,
              .flags = first_entry ? std::uint8_t{0} : obs::kEventFlagRequeue,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node)});
  r.waiting_since = now_;
  tasks_.touch_priority(g);
  nodes_.insert_waiting(node, g, tasks_);
}

void Engine::fill_all_slots() {
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const ClusterState::Node& n = nodes_.node(static_cast<int>(k));
    if (n.up && n.free_slots > 0 && !n.waiting.empty())
      fill_slots(static_cast<int>(k));
  }
}

void Engine::fill_slots(int node) {
  ClusterState::Node& n = nodes_.node_mut(node);
  if (!n.up) return;
  std::vector<Gid> touched;
  // A dependency-blind policy can nominate unready task after unready task.
  // Each rejection persistently blocks the task (launch_blocked_) so it is
  // not re-nominated until its inputs appear; the per-event budget is a
  // backstop against policies that ignore the blocked flag.
  int disorder_budget = 1024;
  while (n.free_slots > 0 && !n.waiting.empty()) {
    const Gid g = scheduler_.select_next(node, *this, dispatch_excluded_);
    if (g == kInvalidGid) break;
    if (g >= tasks_.task_count() || tasks_.rt(g).node != node ||
        (tasks_.rt(g).state != TaskState::kWaiting &&
         tasks_.rt(g).state != TaskState::kSuspended)) {
      DSP_ERROR("scheduler %s selected an invalid task %u for dispatch",
                scheduler_.name(), g);
      break;
    }
    if (dispatch_excluded_[g]) break;  // policy ignored the exclusion set
    if (!is_ready(g)) {
      // Dependency disorder. A slot-hoarding executor launches the task
      // anyway and it idles in the slot until its inputs appear; otherwise
      // the launch check rejects it and blocks re-nomination until its
      // precedents finish.
      ++metrics_.disorders;
      if (scheduler_.hoards_slots() &&
          n.available.fits(task_info(g).demand)) {
        nodes_.remove_waiting(node, g, tasks_);
        start_hoarding(node, g);
        continue;
      }
      tasks_.set_launch_blocked(g);
      dispatch_excluded_[g] = 1;
      touched.push_back(g);
      if (--disorder_budget <= 0) break;
      continue;
    }
    if (!n.available.fits(task_info(g).demand)) {
      dispatch_excluded_[g] = 1;
      touched.push_back(g);
      continue;
    }
    SimTime overhead = 0;
    if (tasks_.rt(g).state == TaskState::kSuspended) {
      const bool checkpointed =
          !preempt_ ||
          preempt_->checkpoint_mode() == CheckpointMode::kCheckpoint;
      overhead = checkpointed ? params_.recovery + params_.ctx_switch
                              : params_.ctx_switch;
    }
    nodes_.remove_waiting(node, g, tasks_);
    start_task(node, g, overhead);
  }
  for (Gid g : touched) dispatch_excluded_[g] = 0;
}

void Engine::start_hoarding(int node, Gid g) {
  TaskRt& r = tasks_.rt(g);
  ClusterState::Node& n = nodes_.node_mut(node);
  assert(n.free_slots > 0 && !is_ready(g));
  if (r.waiting_since != kNoTime) {
    r.total_wait_s += to_seconds(now_ - r.waiting_since);
    r.waiting_since = kNoTime;
  }
  r.state = TaskState::kHoarding;
  ++r.token;
  tasks_.touch_priority(g);
  n.available -= task_info(g).demand;
  --n.free_slots;
  n.running.push_back(g);
  push_event(now_ + params_.hoard_timeout, EventCalendar::Kind::kHoardTimeout,
             g, r.token);
  emit_event({.kind = obs::EventKind::kHoardStart,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node)});
}

void Engine::activate_hoarding(Gid g) {
  TaskRt& r = tasks_.rt(g);
  assert(r.state == TaskState::kHoarding && is_ready(g));
  // The slot and resources are already held; begin real execution now.
  // Hoarded time is deliberately NOT counted as busy slot time. No input
  // transfer is charged either: the task had the whole hoarding window to
  // prefetch its data.
  if (r.first_start == kNoTime) r.first_start = now_;
  r.state = TaskState::kRunning;
  r.last_dispatch = now_;
  r.current_overhead = 0;
  ++r.token;
  tasks_.touch_priority(g);
  const double remaining = std::max(0.0, task_info(g).size_mi - r.executed_mi);
  const SimTime run_time =
      from_seconds(remaining / node_rate(r.node));
  push_event(now_ + run_time, EventCalendar::Kind::kFinish, g, r.token);
  emit_event({.kind = obs::EventKind::kTaskDispatch,
              .flags = obs::kEventFlagHoardActivate,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(r.node)});
}

void Engine::on_hoard_timeout(Gid g, std::uint32_t token) {
  TaskRt& r = tasks_.rt(g);
  if (r.token != token || r.state != TaskState::kHoarding) return;  // stale
  // Evict: the executor gives up on the missing inputs and requeues the
  // task, freeing the slot it was wasting.
  const int node = r.node;
  ClusterState::Node& n = nodes_.node_mut(node);
  ++r.token;
  r.state = TaskState::kWaiting;
  n.available += task_info(g).demand;
  ++n.free_slots;
  n.running.erase(std::find(n.running.begin(), n.running.end(), g));
  tasks_.set_launch_blocked(g);  // do not re-launch until inputs appear
  // Re-insert into the waiting queue; state must not look unscheduled.
  nodes_.insert_waiting(node, g, tasks_);
  r.waiting_since = now_;
  tasks_.touch_priority(g);
  emit_event({.kind = obs::EventKind::kHoardEvict,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node)});
  fill_slots(node);
}

void Engine::start_task(int node, Gid g, SimTime resume_overhead) {
  TaskRt& r = tasks_.rt(g);
  ClusterState::Node& n = nodes_.node_mut(node);
  assert(n.free_slots > 0);
  assert(r.state == TaskState::kWaiting || r.state == TaskState::kSuspended);

  if (r.waiting_since != kNoTime) {
    r.total_wait_s += to_seconds(now_ - r.waiting_since);
    r.waiting_since = kNoTime;
  }
  if (r.first_start == kNoTime) {
    r.first_start = now_;
    // First launch fetches the input data; afterwards it is node-local.
    const Task& info = task_info(g);
    if (!info.input_nodes.empty()) {
      const SimTime fetch = transfer_time(g, node);
      resume_overhead += fetch;
      if (fetch > 0) ++metrics_.locality_remote;
      else ++metrics_.locality_local;
    }
  }
  r.state = TaskState::kRunning;
  r.last_dispatch = now_;
  r.current_overhead = resume_overhead;
  ++r.token;
  tasks_.touch_priority(g);
  metrics_.overhead_s += to_seconds(resume_overhead);

  n.available -= task_info(g).demand;
  --n.free_slots;
  n.running.push_back(g);

  const double remaining = std::max(0.0, task_info(g).size_mi - r.executed_mi);
  const SimTime run_time = from_seconds(remaining / node_rate(node));
  push_event(now_ + resume_overhead + run_time, EventCalendar::Kind::kFinish,
             g, r.token);
  emit_event({.kind = obs::EventKind::kTaskDispatch,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node),
              .a = static_cast<double>(resume_overhead)});
}

void Engine::suspend_task(int node, Gid g) {
  TaskRt& r = tasks_.rt(g);
  ClusterState::Node& n = nodes_.node_mut(node);
  assert(r.state == TaskState::kRunning && r.node == node);

  // Accrue progress: time on slot minus the dispatch overhead window.
  const SimTime elapsed = now_ - r.last_dispatch;
  const SimTime worked = std::max<SimTime>(0, elapsed - r.current_overhead);
  r.executed_mi += to_seconds(worked) * node_rate(node);
  r.executed_mi = std::min(r.executed_mi, task_info(g).size_mi);
  n.busy_us += static_cast<double>(elapsed);

  const bool checkpointed =
      !preempt_ || preempt_->checkpoint_mode() == CheckpointMode::kCheckpoint;
  if (!checkpointed) {
    // Restart from scratch (SRPT): the progress is discarded.
    metrics_.work_lost_mi += r.executed_mi;
    r.executed_mi = 0.0;
  }

  ++r.token;  // invalidate the in-flight finish event
  ++r.preemptions;
  r.state = TaskState::kSuspended;

  n.available += task_info(g).demand;
  ++n.free_slots;
  n.running.erase(std::find(n.running.begin(), n.running.end(), g));
  emit_event({.kind = obs::EventKind::kTaskPreempt,
              .flags = checkpointed ? obs::kEventFlagKeptProgress
                                    : std::uint8_t{0},
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node)});
  enqueue_waiting(node, g);
}

PreemptResult Engine::try_preempt(int node, Gid victim, Gid incoming) {
  assert(nodes_.in_range(node));
  const ClusterState::Node& n = nodes_.node(node);
  if (tasks_.rt(victim).state != TaskState::kRunning ||
      tasks_.rt(victim).node != node)
    return PreemptResult::kVictimNotRunning;
  const TaskState in_state = tasks_.rt(incoming).state;
  if ((in_state != TaskState::kWaiting && in_state != TaskState::kSuspended) ||
      tasks_.rt(incoming).node != node)
    return PreemptResult::kIncomingNotWaiting;
  if (!is_ready(incoming)) {
    ++metrics_.disorders;
    tasks_.set_launch_blocked(incoming);
    return PreemptResult::kIncomingNotReady;
  }
  // Resource check with the victim's reservation returned.
  Resources freed = n.available + task_info(victim).demand;
  if (!freed.fits(task_info(incoming).demand))
    return PreemptResult::kNoResources;

  suspend_task(node, victim);
  ++metrics_.preemptions;

  SimTime overhead = params_.ctx_switch;
  if (in_state == TaskState::kSuspended) {
    const bool checkpointed =
        !preempt_ || preempt_->checkpoint_mode() == CheckpointMode::kCheckpoint;
    if (checkpointed) overhead += params_.recovery;
  }
  nodes_.remove_waiting(node, incoming, tasks_);
  start_task(node, incoming, overhead);
  return PreemptResult::kOk;
}

bool Engine::evict_running(Gid g) {
  const TaskRt& r = tasks_.rt(g);
  if (r.state != TaskState::kRunning) return false;
  suspend_task(r.node, g);
  ++metrics_.preemptions;
  return true;
}

bool Engine::migrate_task(Gid g, int to_node) {
  TaskRt& r = tasks_.rt(g);
  if (r.state != TaskState::kWaiting && r.state != TaskState::kSuspended)
    return false;
  if (!nodes_.in_range(to_node) || to_node == r.node) return false;
  ClusterState::Node& dst = nodes_.node_mut(to_node);
  if (!dst.up || !cluster_.node(static_cast<std::size_t>(to_node))
                      .capacity.fits(task_info(g).demand))
    return false;

  const int from = r.node;
  nodes_.remove_waiting(from, g, tasks_);
  ClusterState::Node& src = nodes_.node_mut(from);
  src.backlog_mi = std::max(0.0, src.backlog_mi - task_info(g).size_mi);
  r.node = to_node;
  tasks_.touch_priority(g);
  dst.backlog_mi += task_info(g).size_mi;
  nodes_.insert_waiting(to_node, g, tasks_);
  emit_event({.kind = obs::EventKind::kTaskMigrate,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(from),
              .node2 = n16(to_node)});
  if (dst.free_slots > 0) fill_slots(to_node);
  return true;
}

void Engine::on_finish(Gid g, std::uint32_t token) {
  TaskRt& r = tasks_.rt(g);
  if (r.token != token || r.state != TaskState::kRunning) return;  // stale

  const int node = r.node;
  ClusterState::Node& n = nodes_.node_mut(node);
  r.state = TaskState::kFinished;
  r.finish = now_;
  r.executed_mi = task_info(g).size_mi;
  ++r.token;
  tasks_.touch_priority_topo(g);
  n.busy_us += static_cast<double>(now_ - r.last_dispatch);
  n.available += task_info(g).demand;
  ++n.free_slots;
  n.running.erase(std::find(n.running.begin(), n.running.end(), g));
  n.backlog_mi = std::max(0.0, n.backlog_mi - task_info(g).size_mi);

  last_finish_ = std::max(last_finish_, now_);
  ++metrics_.tasks_finished;

  // Wake children: a queued child whose last input just appeared joins
  // its node's ready index, and a hoarding one starts executing in place.
  const JobId j = tasks_.job_of(g);
  const TaskGraph& graph = jobs_[j].graph();
  for (TaskIndex child : graph.children(tasks_.index_of(g))) {
    const Gid cg = gid(j, child);
    TaskRt& c = tasks_.rt(cg);
    assert(c.unfinished_parents > 0);
    if (--c.unfinished_parents != 0) continue;
    if (c.state == TaskState::kHoarding)
      activate_hoarding(cg);
    else
      mark_ready(cg);
  }

  emit_event({.kind = obs::EventKind::kTaskFinish,
              .job = j,
              .task = g,
              .node = n16(node)});

  JobRt& jr = tasks_.job_rt(j);
  jr.serviced_mi += task_info(g).size_mi;
  assert(jr.unfinished_tasks > 0);
  if (--jr.unfinished_tasks == 0) complete_job(j);

  fill_slots(node);
  // A child that became ready may be queued on another idle node.
  for (TaskIndex child : graph.children(tasks_.index_of(g))) {
    const TaskRt& c = tasks_.rt(gid(j, child));
    if (c.node >= 0 && c.node != node && c.unfinished_parents == 0 &&
        nodes_.node(c.node).free_slots > 0)
      fill_slots(c.node);
  }
}

void Engine::complete_job(JobId j) {
  JobRt& jr = tasks_.job_rt(j);
  jr.finished = true;
  ++finished_jobs_;
  ++metrics_.jobs_finished;

  SimTime finish = 0;
  double wait_total = 0.0;
  for (TaskIndex t = 0; t < jobs_[j].task_count(); ++t) {
    const TaskRt& r = tasks_.rt(gid(j, t));
    finish = std::max(finish, r.finish);
    wait_total += r.total_wait_s;
  }
  const double mean_wait =
      wait_total / static_cast<double>(jobs_[j].task_count());
  metrics_.job_waiting_s.push_back(mean_wait);
  const bool met = finish <= jobs_[j].deadline();
  if (met)
    ++metrics_.jobs_met_deadline;
  else
    ++metrics_.deadline_misses;
  metrics_.job_records.push_back(JobRecord{j, jobs_[j].size_class(),
                                           jobs_[j].tier(), jobs_[j].arrival(),
                                           finish, mean_wait, met});
  emit_event({.kind = obs::EventKind::kJobComplete,
              .flags = met ? obs::kEventFlagDeadlineMet : std::uint8_t{0},
              .job = j,
              .a = mean_wait});

  // Unblock successor jobs (cross-job dependencies); their queued tasks
  // without unfinished parents become ready.
  bool unblocked = false;
  for (JobId s : jr.successor_jobs) {
    assert(tasks_.job_rt(s).pred_jobs_remaining > 0);
    if (--tasks_.job_rt(s).pred_jobs_remaining != 0) continue;
    unblocked = true;
    for (TaskIndex t = 0; t < jobs_[s].task_count(); ++t) mark_ready(gid(s, t));
  }
  if (unblocked) fill_all_slots();
}

void Engine::mark_ready(Gid g) {
  const TaskRt& r = tasks_.rt(g);
  if ((r.state == TaskState::kWaiting || r.state == TaskState::kSuspended) &&
      tasks_.ready(g))
    nodes_.insert_ready(r.node, g, tasks_);
}

}  // namespace dsp

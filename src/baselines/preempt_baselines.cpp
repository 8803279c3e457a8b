#include "baselines/preempt_baselines.h"

#include <algorithm>

namespace dsp {

void QueueScanPreemption::on_epoch(Engine& engine) {
  for (int node = 0; node < static_cast<int>(engine.node_count()); ++node) {
    if (engine.waiting(node).empty()) continue;

    victims_.clear();
    for (Gid r : engine.running(node))
      if (eligible_victim(engine, r)) victims_.push_back(make_victim(engine, r));
    if (victims_.empty()) continue;
    std::sort(victims_.begin(), victims_.end(),
              [&](const Victim& a, const Victim& b) {
                return victim_order(engine, a, b);
              });

    // Snapshot: preemption mutates the queue. Every running task is evicted
    // at most once per epoch (victims are consumed), which bounds the
    // per-node work. Failed preempt-in attempts (e.g. unready tasks under
    // these dependency-blind policies) also cost real scheduler time, so
    // they share a per-node budget.
    int attempt_budget = 8 * static_cast<int>(victims_.size());
    engine.waiting_snapshot(node, waiting_);
    for (Gid w : waiting_) {
      if (victims_.empty() || attempt_budget <= 0) break;
      const TaskState s = engine.state(w);
      if (s != TaskState::kWaiting && s != TaskState::kSuspended) continue;
      if (engine.launch_blocked(w)) continue;  // failed input check earlier
      if (!eligible_preemptor(engine, w)) continue;

      for (auto it = victims_.begin(); it != victims_.end();) {
        if (engine.state(it->g) != TaskState::kRunning) {
          it = victims_.erase(it);
          continue;
        }
        // Victims are sorted best-first; if the best remaining victim is
        // not preemptable by w, none is.
        if (!should_preempt(engine, w, *it)) break;
        // NOTE: no dependency/readiness check — these baselines neglect
        // dependency; the engine records a disorder when w is not ready.
        --attempt_budget;
        const PreemptResult res = engine.try_preempt(node, it->g, w);
        if (res == PreemptResult::kOk) {
          victims_.erase(it);
          break;
        }
        if (res == PreemptResult::kNoResources) {
          ++it;  // a bigger victim may free enough
          continue;
        }
        // kIncomingNotReady (disorder counted) or invalid: drop this
        // waiting task.
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Amoeba
// ---------------------------------------------------------------------

bool AmoebaPolicy::victim_order(const Engine& engine, const Victim& a,
                               const Victim& b) const {
  (void)engine;
  // Most resources ~ longest remaining time first (lowest priority).
  return a.remaining != b.remaining ? a.remaining > b.remaining : a.g < b.g;
}

bool AmoebaPolicy::should_preempt(const Engine& engine, Gid waiting,
                                  const Victim& victim) const {
  // A waiting task displaces a running task that needs strictly more
  // resources (longer remaining time) than itself.
  return engine.remaining_time(waiting) < victim.remaining;
}

// ---------------------------------------------------------------------
// Natjam
// ---------------------------------------------------------------------

namespace {

/// Scalar "resource usage" for Natjam's most-resources-first rule.
double resource_magnitude(const Engine& engine, Gid g) {
  const Resources& d = engine.task_info(g).demand;
  return d.cpu + d.mem;  // disk/bw are constant per §V, so they don't rank
}

}  // namespace

bool NatjamPolicy::victim_order(const Engine& engine, const Victim& a,
                               const Victim& b) const {
  // Most resources first, then maximum deadline, then shortest remaining.
  const double ra = resource_magnitude(engine, a.g);
  const double rb = resource_magnitude(engine, b.g);
  if (ra != rb) return ra > rb;
  const SimTime da = engine.job(engine.job_of(a.g)).deadline();
  const SimTime db = engine.job(engine.job_of(b.g)).deadline();
  if (da != db) return da > db;
  if (a.remaining != b.remaining) return a.remaining < b.remaining;
  return a.g < b.g;
}

bool NatjamPolicy::should_preempt(const Engine& engine, Gid waiting,
                                  const Victim& victim) const {
  (void)engine;
  (void)waiting;
  (void)victim;
  // Tier eligibility (production preempts research) is enforced by the
  // eligible_* hooks; any eligible pair proceeds.
  return true;
}

bool NatjamPolicy::eligible_preemptor(const Engine& engine, Gid waiting) const {
  return engine.job(engine.job_of(waiting)).tier() == JobTier::kProduction;
}

bool NatjamPolicy::eligible_victim(const Engine& engine, Gid running) const {
  return engine.job(engine.job_of(running)).tier() == JobTier::kResearch;
}

// ---------------------------------------------------------------------
// SRPT
// ---------------------------------------------------------------------

double SrptPolicy::priority(const Engine& engine, Gid g,
                            SimTime remaining) const {
  const double t_w = engine.accumulated_wait_s(g);
  const double t_rem = std::max(0.001, to_seconds(remaining));
  return alpha_ * t_w + beta_ / t_rem;
}

QueueScanPreemption::Victim SrptPolicy::make_victim(const Engine& engine,
                                                    Gid running) const {
  const SimTime remaining = engine.remaining_time(running);
  return {running, remaining, priority(engine, running, remaining)};
}

bool SrptPolicy::victim_order(const Engine& engine, const Victim& a,
                              const Victim& b) const {
  (void)engine;
  // Lowest priority (longest remaining) evicted first.
  return a.priority != b.priority ? a.priority < b.priority : a.g < b.g;
}

bool SrptPolicy::should_preempt(const Engine& engine, Gid waiting,
                                const Victim& victim) const {
  // Core SRPT semantics: only a strictly shorter-remaining task evicts.
  // Without this guard, SRPT's restart-from-scratch checkpointless mode
  // livelocks: waiting time alone eventually outranks any running task,
  // every epoch swaps, and all progress resets (see DESIGN.md deviations).
  // The linear-combination priority still orders victims and preemptors.
  const SimTime remaining = engine.remaining_time(waiting);
  return remaining < victim.remaining &&
         priority(engine, waiting, remaining) > victim.priority;
}

}  // namespace dsp

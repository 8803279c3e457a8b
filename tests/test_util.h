// Shared builders and stub policies for the DSP test suite.
#pragma once

#include <vector>

#include "dag/job.h"
#include "obs/events.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "sim/recorder.h"

namespace dsp::testing {

inline constexpr double kTestRate = 1000.0;  // MIPS of the test reference

/// A job with `n` tasks and no dependencies, each of `size_mi`.
Job make_independent_job(JobId id, std::size_t n, double size_mi,
                         SimTime arrival = 0, SimTime deadline = kMaxTime);

/// A linear chain: task 0 -> 1 -> ... -> n-1.
Job make_chain_job(JobId id, std::size_t n, double size_mi,
                   SimTime arrival = 0, SimTime deadline = kMaxTime);

/// A diamond: 0 -> {1, 2} -> 3.
Job make_diamond_job(JobId id, double size_mi, SimTime arrival = 0,
                     SimTime deadline = kMaxTime);

/// The paper's Fig. 2 example: T1 feeds T2,T3; T2 feeds T4,T5; T3 feeds
/// T6,T7 (0-indexed: 0 -> {1,2}; 1 -> {3,4}; 2 -> {5,6}).
Job make_fig2_job(JobId id, double size_mi = 1000.0, SimTime arrival = 0,
                  SimTime deadline = kMaxTime);

/// The paper's Fig. 3 shapes in one job, as three roots:
///  - A ("T1"):  root with 4 children, no grandchildren.
///  - B ("T6"):  root with 4 children, 1 grandchild under one child.
///  - C ("T11"): root with 4 children, 3 grandchildren spread under them.
/// Returns the job; roots are tasks 0 (A), 5 (B), 11 (C).
Job make_fig3_job(JobId id, double size_mi = 1000.0, SimTime arrival = 0,
                  SimTime deadline = kMaxTime);

/// Places every task on the least-backlogged feasible node in submission
/// order; dispatch is the default (ready-first). The minimal correct
/// scheduler for engine mechanics tests.
class RoundRobinScheduler : public Scheduler {
 public:
  const char* name() const override { return "RoundRobin"; }
  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override;
};

/// Pins every task of every job to one node (requires it to fit).
class PinnedScheduler : public Scheduler {
 public:
  explicit PinnedScheduler(int node) : node_(node) {}
  const char* name() const override { return "Pinned"; }
  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override;

 private:
  int node_;
};

/// A preemption policy that does nothing (lets epochs tick).
class NullPreemption : public PreemptionPolicy {
 public:
  const char* name() const override { return "Null"; }
  void on_epoch(Engine&) override {}
};

/// A finished run: its metrics and the timeline folded from its events.
struct RecordedRun {
  RunMetrics metrics;
  TimelineRecorder timeline;
};

/// Runs `engine` with an in-memory flight recorder attached and folds the
/// recorded events into the run's timeline. Fails the calling test when
/// the log could not hold the whole run.
RecordedRun run_recorded(Engine& engine);

/// Forges a flight-recorder stream for the timeline fold, stamping the
/// dense seqs an EventLog would. The invariant-checker tests build sound
/// and corrupted runs with it.
class EventForge {
 public:
  void dispatch(SimTime t, Gid g, int node) {
    add({.time = t, .kind = obs::EventKind::kTaskDispatch, .task = g,
         .node = static_cast<std::int16_t>(node)});
  }
  void finish(SimTime t, Gid g, int node) {
    add({.time = t, .kind = obs::EventKind::kTaskFinish, .task = g,
         .node = static_cast<std::int16_t>(node)});
  }
  void preempt(SimTime t, Gid g, int node) {
    add({.time = t, .kind = obs::EventKind::kTaskPreempt,
         .flags = obs::kEventFlagKeptProgress, .task = g,
         .node = static_cast<std::int16_t>(node)});
  }
  void job_complete(SimTime t, JobId j) {
    add({.time = t, .kind = obs::EventKind::kJobComplete, .job = j});
  }

  /// The forged run's timeline.
  TimelineRecorder fold() const;

 private:
  void add(obs::Event e) {
    e.seq = events_.size();
    events_.push_back(e);
  }

  std::vector<obs::Event> events_;
};

}  // namespace dsp::testing

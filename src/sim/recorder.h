// Timeline recording: folds a run's flight-recorder events (an EventLog
// snapshot or a JSONL log) into a Gantt-style execution trace.
//
// Every slot occupation becomes an interval {task, node, kind, begin, end}:
// productive execution, dispatch overhead (context switch / checkpoint
// recovery), or slot hoarding. The timeline powers the run-invariant
// checker (invariants.h), the Chrome trace exporter, per-node utilization
// reports, and CSV export for external plotting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dag/task.h"
#include "obs/events.h"
#include "sim/types.h"
#include "util/time.h"

namespace dsp {

/// What a recorded slot interval represents.
enum class IntervalKind : std::uint8_t {
  kOverhead,  ///< Context-switch / checkpoint-recovery time.
  kRun,       ///< Productive execution.
  kHoard,     ///< Slot held by a task whose inputs do not exist yet.
};

const char* to_string(IntervalKind k);

/// One slot occupation.
struct Interval {
  Gid task = kInvalidGid;
  int node = -1;
  IntervalKind kind = IntervalKind::kRun;
  SimTime begin = 0;
  SimTime end = 0;
  /// How the occupation ended.
  enum class End : std::uint8_t { kFinished, kPreempted, kEvicted } outcome =
      End::kFinished;

  SimTime duration() const { return end - begin; }
};

const char* to_string(Interval::End e);

struct TimelineFoldResult;

/// The full execution timeline of one simulation run.
///
/// Usage:
///   obs::EventLog log;
///   engine.set_event_log(&log);
///   engine.run();
///   const auto fold = TimelineRecorder::from_events(log.snapshot());
///   auto problems = check_run_invariants(fold.timeline, ...);
class TimelineRecorder {
 public:
  /// Folds a run's events, oldest first, into its timeline. Reads
  /// kTaskDispatch (overhead in payload a), kTaskFinish, kTaskPreempt,
  /// kHoardStart, kHoardEvict, kJobComplete, kScheduleRound and kEpoch;
  /// other kinds are skipped. The events must hold the whole run: the
  /// result carries an error, naming the first missing seq, when they do
  /// not start at seq 0 or skip one (a wrapped ring, a file missing its
  /// head). Per-kind sampling (DSP_EVENT_SAMPLE) and a file cut after a
  /// whole line leave no seq gap, so this check cannot see them: fold only
  /// unsampled, complete logs.
  static TimelineFoldResult from_events(std::span<const obs::Event> events);

  /// All closed intervals, in completion order.
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// Intervals of one task, in time order.
  std::vector<Interval> intervals_for_task(Gid g) const;

  /// Intervals on one node, in time order.
  std::vector<Interval> intervals_on_node(int node) const;

  /// Completion time of task `g`, or kNoTime if it never finished.
  SimTime finish_time(Gid g) const;

  /// First productive start of task `g`, or kNoTime.
  SimTime first_run_start(Gid g) const;

  /// Job completion times, in completion order.
  const std::vector<std::pair<SimTime, JobId>>& job_completions() const {
    return job_completions_;
  }

  /// One offline scheduling round (a kScheduleRound event).
  struct ScheduleRound {
    SimTime time = 0;
    std::size_t jobs = 0;
    std::size_t placements = 0;
  };

  /// Number of scheduling rounds recorded.
  std::size_t schedule_rounds() const { return rounds_.size(); }

  /// Every scheduling round, in time order (the Chrome trace exporter
  /// renders these as instant events).
  const std::vector<ScheduleRound>& rounds() const { return rounds_; }

  /// Every preemption epoch tick, in time order.
  const std::vector<SimTime>& epochs() const { return epochs_; }

  /// Total productive seconds on a node.
  double busy_seconds_on_node(int node) const;

  /// Writes the timeline as CSV: task,node,kind,begin_us,end_us,outcome.
  void write_csv(std::ostream& out) const;

  /// Renders an ASCII Gantt chart: one row per node, time bucketed into
  /// `width` columns. '#' = running, '%' = overhead, '~' = hoarding,
  /// '.' = idle. Useful in examples and for eyeballing schedules.
  std::string render_gantt(std::size_t node_count, std::size_t width = 72) const;

 private:
  std::vector<Interval> intervals_;
  std::vector<std::pair<SimTime, Gid>> finish_times_;
  std::vector<std::pair<SimTime, JobId>> job_completions_;
  std::vector<ScheduleRound> rounds_;
  std::vector<SimTime> epochs_;
};

/// Result of TimelineRecorder::from_events.
struct TimelineFoldResult {
  TimelineRecorder timeline;  ///< Empty when `error` is set.
  std::string error;  ///< Empty on success.

  bool ok() const { return error.empty(); }
};

}  // namespace dsp

// Dependency-aware task priority (paper §IV-A, Formulas 12 and 13).
//
// A task with no unfinished dependents gets the leaf priority
//   P = omega1 * 1/t_rem + omega2 * t_w + omega3 * t_a        (Formula 13)
// and an internal task aggregates its children recursively
//   P = sum_{children} (gamma + 1) * P_child                  (Formula 12)
// so tasks whose completion unlocks more downstream work — especially at
// higher DAG levels — carry higher priority (the T_11 > T_6 > T_1 ordering
// of Fig. 3).
//
// Priorities are kept as lines in simulated time. Between two events that
// bump a job's Engine::priority_version, a leaf that is not running has a
// fixed t_rem while t_w rises and t_a falls one second per second
// (Engine::leaf_terms), so its Formula 13 value is exactly A + B*t; Formula
// 12 is linear in the children, so every internal task is a line too. The
// one non-linear term, omega1/t_rem of a running task, never feeds a
// parent: a task starts only once all its parents finished, so no live
// task has a running descendant. compute_all therefore
//   - rebuilds a job's (A, B) only when its version moved, walking its
//     live reverse-topological order once (children before parents);
//   - evaluates the running leaves (at most one per slot) directly, by
//     walking Engine::running, and stores them as (p, 0);
//   - keeps, per job, a kinetic certificate for the global PP range: the
//     job's lowest and highest lines and the job time until which no other
//     line can overtake either. A clean job whose certificate holds costs
//     O(1); an expired certificate re-scans the job's stored lines.
// t is job time, seconds since the job's arrival: an anchor that depends
// on state only, so coefficients rebuilt at any later time are bit-equal
// and incremental results match a from-scratch refresh exactly, while the
// cancellation in A + B*t stays bounded by the job's age. The certificate
// keeps a rounding margin, so its min/max equal a brute-force min/max of
// at() bit for bit.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/params.h"
#include "sim/engine.h"

namespace dsp {

/// Computes Formula 12/13 priorities against live engine state.
class DependencyPriority {
 public:
  explicit DependencyPriority(const DspParams& params) : params_(params) {}

  /// Leaf priority (Formula 13) from the task's current remaining time,
  /// waiting time and allowable waiting time. Times in seconds; remaining
  /// time is clamped to >= 1 ms so 1/t_rem stays bounded.
  double leaf_priority(const Engine& engine, Gid g) const;

  /// Min/max priority over live (waiting/running/suspended/hoarding)
  /// tasks plus their count, from which the PP normalizer P-bar is
  /// derived.
  struct Range {
    double min_p = 0.0;
    double max_p = 0.0;
    std::size_t live_tasks = 0;

    /// Mean gap between neighbouring priorities in the sorted order:
    /// exactly (max - min) / (n - 1), no sort required.
    double mean_neighbor_gap() const {
      return live_tasks > 1 ? (max_p - min_p) / static_cast<double>(live_tasks - 1)
                            : 0.0;
    }
  };

  /// Snapshots every priority at engine.now() and returns the global live
  /// Range: rebuilds jobs whose priority_version moved, re-checks each
  /// job's certificate, and evaluates the running leaves.
  Range compute_all(const Engine& engine);

  /// Priority of `g` as of the last compute_all (0 for finished tasks and
  /// tasks of jobs not yet scheduled). A snapshot: later engine mutations,
  /// such as a try_preempt suspending a running leaf, do not move it.
  double at(Gid g) const {
    assert(engine_ != nullptr && g < lines_.size());
    return value(lines_[g], jobs_[engine_->job_of(g)].t);
  }

  /// Rebuilds `job`'s lines and certificate at engine.now(), whether or
  /// not its version moved (compute_all calls this for dirty jobs).
  void rebuild(const Engine& engine, JobId job);

  /// Number of rebuild() calls so far. A time-only advance must not add
  /// to it.
  std::uint64_t rebuilds() const { return rebuilds_; }

  /// Drops all incremental state; the next compute_all rebuilds every
  /// job from scratch (the full-recompute reference path).
  void invalidate() { engine_ = nullptr; }

  /// A priority as a line in job time t: a + b * t.
  struct Line {
    double a = 0.0;
    double b = 0.0;
  };
  /// The one evaluation every reader shares, so values compare exactly.
  static double value(Line l, double t) { return l.a + l.b * t; }

 private:
  /// Per-job state; t is the job time of the last compute_all.
  struct JobLines {
    std::uint64_t version = 0;  // priority_version at the last rebuild
    std::size_t live = 0;       // live non-unscheduled tasks
    SimTime anchor = 0;         // job time 0: the job's arrival
    double t = 0.0;
    bool has_lines = false;  // any live task besides running leaves
    Line lo, hi;             // the lowest and highest such line at t
    double lo_until = 0.0;   // job time until which lo stays lowest
    double hi_until = 0.0;   // ... and hi stays highest
  };

  /// Sizes the per-task and per-job state for `engine` when its run
  /// differs from the one the state was built for.
  void bind(const Engine& engine);
  /// Re-picks the lowest and highest lines of clean job `job` at its
  /// current t, and the job time until which each provably stays so.
  /// Only called when the job has lines.
  void certify(const Engine& engine, JobId job);

  const DspParams& params_;
  const Engine* engine_ = nullptr;
  std::uint64_t run_ = 0;  // engine_->run_id() at bind
  std::vector<Line> lines_;  // per gid
  std::vector<JobLines> jobs_;
  std::vector<JobId> open_jobs_;  // jobs not finished at the last call
  std::uint64_t rebuilds_ = 0;
};

}  // namespace dsp

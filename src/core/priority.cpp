#include "core/priority.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/profiler.h"

namespace dsp {
namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

/// Relative rounding margin of the range certificate. Evaluating a + b*t
/// errs by at most about u * (|a| + 2|b|t), u = 2^-53; the margin is 16x
/// that, which also absorbs the rounding in the overtake-time solve.
constexpr double kMargin = 8.0 * std::numeric_limits<double>::epsilon();

/// Job time until which line `upper` provably evaluates >= line `lower`,
/// starting from job time `t` (t >= 0); `t` itself when it cannot be
/// guaranteed beyond t. Parallel lines never swap: rounding is monotone,
/// and both add the same rounded b*t.
double stays_above(DependencyPriority::Line lower,
                   DependencyPriority::Line upper, double t) {
  if (upper.b == lower.b && upper.a >= lower.a) return kForever;
  // The gap, shrunk by the worst-case rounding of both evaluations, must
  // stay positive; it is linear in t.
  const double alpha =
      (upper.a - lower.a) - kMargin * (std::abs(upper.a) + std::abs(lower.a));
  const double beta = (upper.b - lower.b) -
                      2.0 * kMargin * (std::abs(upper.b) + std::abs(lower.b));
  if (alpha + beta * t <= 0.0) return t;
  return beta < 0.0 ? -alpha / beta : kForever;
}

/// The lowest and highest of the values added, in visit order; the first
/// of equal values wins.
struct Extremes {
  Gid lo = kInvalidGid, hi = kInvalidGid;
  double lo_p = 0.0, hi_p = 0.0;
  void add(Gid g, double p) {
    if (lo == kInvalidGid || p < lo_p) lo = g, lo_p = p;
    if (hi == kInvalidGid || p > hi_p) hi = g, hi_p = p;
  }
};

/// Running tasks without live children: the only non-linear priorities.
/// A task runs only once all its parents finished, so none of a running
/// task's children can have finished: it is a leaf exactly when it has no
/// children at all, and no scan of their states is needed.
bool running_leaf(const Engine& engine, Gid g) {
  return engine.state(g) == TaskState::kRunning &&
         engine.job(engine.job_of(g)).graph().children(engine.index_of(g))
             .empty();
}

}  // namespace

double DependencyPriority::leaf_priority(const Engine& engine, Gid g) const {
  // Accumulated waiting (not just the current stretch): a task keeps the
  // priority it earned by waiting even while running, which stabilizes the
  // C1 comparison between waiting and running tasks.
  const Engine::LeafInputs in = engine.leaf_inputs(g);
  const double t_rem = std::max(0.001, in.t_rem_s);
  return params_.omega1 / t_rem + params_.omega2 * in.t_wait_s +
         params_.omega3 * in.t_allow_s;
}

void DependencyPriority::bind(const Engine& engine) {
  // The run id, not the address, marks a new run: a policy kept across
  // runs sees each new engine built where the last one was.
  if (engine_ == &engine && run_ == engine.run_id()) return;
  engine_ = &engine;
  run_ = engine.run_id();
  lines_.assign(engine.total_task_count(), Line{});
  jobs_.assign(engine.job_count(), JobLines{});
  open_jobs_.resize(engine.job_count());
  for (JobId j = 0; j < open_jobs_.size(); ++j) open_jobs_[j] = j;
}

void DependencyPriority::rebuild(const Engine& engine, JobId job) {
  bind(engine);
  ++rebuilds_;
  const Job& j = engine.job(job);
  const TaskGraph& graph = j.graph();
  const Gid base = engine.gid(job, 0);
  // Zero the job's whole span first: finished tasks (and running leaves,
  // until compute_all evaluates them) read 0 without being walked.
  std::fill(lines_.begin() + base, lines_.begin() + base + j.task_count(),
            Line{});

  JobLines& jl = jobs_[job];
  jl.live = 0;
  jl.anchor = j.arrival();
  jl.t = to_seconds(engine.now() - jl.anchor);
  const double g1 = params_.gamma + 1.0;
  Extremes ext;  // over the live lines at t, exactly as at() evaluates them
  // Live tasks in reverse topological order: every child's line is ready
  // before its parents aggregate it.
  for (const Gid g : engine.live_reverse_topo(job)) {
    const auto t = static_cast<TaskIndex>(g - base);
    double a = 0.0, b = 0.0;
    bool has_live_child = false;
    for (TaskIndex c : graph.children(t)) {
      const Gid cg = base + c;
      if (engine.state(cg) == TaskState::kFinished) continue;
      has_live_child = true;
      a += g1 * lines_[cg].a;
      b += g1 * lines_[cg].b;
    }
    const TaskState s = engine.state(g);
    if (s != TaskState::kUnscheduled) ++jl.live;
    if (!has_live_child) {
      if (s == TaskState::kRunning) continue;  // a running leaf
      const Engine::LeafTerms in = engine.leaf_terms(g, jl.anchor);
      a = params_.omega1 / std::max(0.001, in.t_rem_s) +
          params_.omega2 * in.t_wait_s + params_.omega3 * in.t_allow_s;
      b = params_.omega2 * in.wait_slope + params_.omega3 * in.allow_slope;
    }
    lines_[g] = {a, b};
    if (s != TaskState::kUnscheduled) ext.add(g, value(lines_[g], jl.t));
  }
  jl.version = engine.priority_version(job);
  jl.has_lines = ext.lo != kInvalidGid;
  if (jl.has_lines) jl.lo = lines_[ext.lo], jl.hi = lines_[ext.hi];
  // The extremes hold at t only; the overtake scan (certify) waits until
  // the job is still clean at a later refresh, so a job dirty at every
  // epoch never pays for it. Without lines there is nothing to overtake
  // until the next rebuild.
  jl.lo_until = jl.hi_until = jl.has_lines ? jl.t : kForever;
}

void DependencyPriority::certify(const Engine& engine, JobId job) {
  JobLines& jl = jobs_[job];
  const std::vector<Gid>& live = engine.live_reverse_topo(job);
  auto in_range = [&engine](Gid g) {
    return engine.state(g) != TaskState::kUnscheduled &&
           !running_leaf(engine, g);
  };
  // The lowest and highest values at the new t, as rebuild picks them.
  Extremes ext;
  for (const Gid g : live)
    if (in_range(g)) ext.add(g, value(lines_[g], jl.t));
  assert(ext.lo != kInvalidGid && "a clean job keeps its lines");
  jl.lo = lines_[ext.lo];
  jl.hi = lines_[ext.hi];
  // How long no other line can overtake either.
  jl.lo_until = jl.hi_until = kForever;
  for (const Gid g : live) {
    if (!in_range(g)) continue;
    jl.lo_until = std::min(jl.lo_until, stays_above(jl.lo, lines_[g], jl.t));
    jl.hi_until = std::min(jl.hi_until, stays_above(lines_[g], jl.hi, jl.t));
  }
}

DependencyPriority::Range DependencyPriority::compute_all(
    const Engine& engine) {
  DSP_PROFILE("priority.compute_all_s");
  bind(engine);
  Range range;
  bool first = true;
  auto include = [&range, &first](double p) {
    if (first || p < range.min_p) range.min_p = p;
    if (first || p > range.max_p) range.max_p = p;
    first = false;
  };

  const SimTime now = engine.now();
  std::size_t open = 0;
  for (const JobId j : open_jobs_) {
    JobLines& jl = jobs_[j];
    if (engine.job_finished(j)) {
      // The job completed since the last call: zero its stale lines and
      // stop visiting it.
      const Gid base = engine.gid(j, 0);
      const std::size_t n = engine.job(j).task_count();
      std::fill(lines_.begin() + base, lines_.begin() + base + n, Line{});
      jl = JobLines{};
      continue;
    }
    open_jobs_[open++] = j;
    if (!engine.job_scheduled(j)) continue;
    if (jl.version != engine.priority_version(j)) {
      rebuild(engine, j);
    } else {
      jl.t = to_seconds(now - jl.anchor);
      if (jl.t > jl.lo_until || jl.t > jl.hi_until) certify(engine, j);
    }
    range.live_tasks += jl.live;
    if (jl.has_lines) {
      include(value(jl.lo, jl.t));
      include(value(jl.hi, jl.t));
    }
  }
  open_jobs_.resize(open);

  // Running leaves are no line: evaluate them now and snapshot the value.
  for (std::size_t k = 0; k < engine.node_count(); ++k) {
    for (const Gid g : engine.running(static_cast<int>(k))) {
      if (!running_leaf(engine, g)) continue;
      const double p = leaf_priority(engine, g);
      lines_[g] = {p, 0.0};
      include(p);
    }
  }
  return range;
}

}  // namespace dsp

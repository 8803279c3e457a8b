#include "lp/milp.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/env.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace dsp::lp {
namespace {

/// Index of the most fractional integral variable, or -1 if all integral.
int most_fractional(const Model& model, const std::vector<double>& x,
                    double int_tol) {
  int best = -1;
  double best_frac_dist = int_tol;
  for (std::size_t i = 0; i < model.var_count(); ++i) {
    if (!model.var(static_cast<VarId>(i)).is_integer) continue;
    const double frac = x[i] - std::floor(x[i]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_frac_dist) {
      best_frac_dist = dist;
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// One open branch-and-bound node: a single bound delta over the parent
/// chain (O(1) state per node) plus the parent relaxation's basis, shared
/// by both children for warm-starting.
struct OpenNode {
  double bound;       // parent relaxation objective, minimize direction
  std::uint64_t seq;  // creation order: total tie-break, deterministic
  int var;            // branched variable (-1 at the root)
  double lo, hi;      // effective bounds of `var` at this node
  int slot;           // wave slot that solved the parent (fast warm path)
  std::shared_ptr<const OpenNode> parent;
  std::shared_ptr<const Basis> warm;  // parent's optimal basis (nullable)
};

using NodePtr = std::shared_ptr<const OpenNode>;

/// Effective bounds of `var` along the node chain: the delta nearest the
/// leaf wins (each delta is already intersected with its ancestors').
std::pair<double, double> chain_bounds(const OpenNode* node, int var,
                                       const Model& model) {
  for (const OpenNode* p = node; p != nullptr; p = p->parent.get())
    if (p->var == var) return {p->lo, p->hi};
  const Variable& v = model.var(static_cast<VarId>(var));
  return {v.lower, v.upper};
}

/// Applies the chain's accumulated bound deltas to a fresh-bounds solver.
void apply_chain(BoundedSimplex& ctx, const OpenNode* node,
                 std::vector<int>& seen) {
  ctx.reset_bounds();
  seen.clear();
  for (const OpenNode* p = node; p != nullptr; p = p->parent.get()) {
    if (p->var < 0) continue;
    if (std::find(seen.begin(), seen.end(), p->var) != seen.end()) continue;
    seen.push_back(p->var);
    ctx.set_var_bounds(static_cast<VarId>(p->var), p->lo, p->hi);
  }
}

}  // namespace

MilpSolver::MilpSolver() = default;
MilpSolver::MilpSolver(Options opts) : opts_(std::move(opts)) {}
MilpSolver::~MilpSolver() = default;

ThreadPool* MilpSolver::pool() const {
  if (resolved_threads_ == 0) {
    // env_int_min warns and clamps on malformed / zero / negative
    // DSP_THREADS values instead of silently falling through.
    const std::int64_t want = opts_.threads > 0
                                  ? opts_.threads
                                  : env_int_min("DSP_THREADS", 1, 1);
    resolved_threads_ = static_cast<int>(want);
    if (resolved_threads_ > 1)
      pool_ = std::make_unique<ThreadPool>(
          static_cast<unsigned>(resolved_threads_));
  }
  return pool_.get();
}

Solution MilpSolver::solve(const Model& model) const {
  DSP_PROFILE("lp.milp_solve_s");
  last_nodes_ = 0;
  last_warm_hits_ = 0;
  const double dir_sign =
      model.direction() == Direction::kMinimize ? 1.0 : -1.0;

  // One reusable simplex per wave slot, built lazily (small searches
  // never touch most slots). Slot assignment is deterministic, so
  // parallel execution touches disjoint state and the merge order is
  // fixed by the wave layout, not by thread scheduling.
  const std::size_t wave_cap =
      static_cast<std::size_t>(std::max(1, opts_.parallel_nodes));
  std::vector<std::unique_ptr<BoundedSimplex>> ctx(wave_cap);
  auto ensure_ctx = [&](std::size_t slot) -> BoundedSimplex& {
    if (ctx[slot] == nullptr)
      ctx[slot] = std::make_unique<BoundedSimplex>(model, opts_.lp);
    return *ctx[slot];
  };

  // Min-heap on (bound, seq): best-bound search with a deterministic
  // total order.
  auto cmp = [](const NodePtr& a, const NodePtr& b) {
    if (a->bound != b->bound) return a->bound > b->bound;
    return a->seq > b->seq;
  };
  std::priority_queue<NodePtr, std::vector<NodePtr>, decltype(cmp)> open(cmp);
  std::uint64_t next_seq = 0;

  Solution incumbent;
  incumbent.status = SolveStatus::kNoSolution;
  double incumbent_obj = kInf;  // in minimize direction

  auto note_warm = [&](const BoundedSimplex& bs) {
    if (bs.stats().warm_used) ++last_warm_hits_;
  };

  // ---- Root: optionally warm-started from the previous solve's root
  // basis when the model shape matches (cross-period reuse). ----
  NodePtr root;
  {
    const Basis* warm = nullptr;
    if (opts_.warm_start && !period_basis_.empty() &&
        period_vars_ == model.var_count() &&
        period_rows_ == model.constraint_count())
      warm = &period_basis_;
    Basis root_basis;
    const Solution rel = ensure_ctx(0).solve(warm, &root_basis);
    ++last_nodes_;
    DSP_COUNT("lp.milp_nodes");
    note_warm(*ctx[0]);
    if (rel.status == SolveStatus::kOptimal && opts_.warm_start) {
      period_basis_ = root_basis;
      period_vars_ = model.var_count();
      period_rows_ = model.constraint_count();
    }
    if (rel.status == SolveStatus::kInfeasible)
      return {SolveStatus::kInfeasible, 0.0, {}};
    if (rel.status == SolveStatus::kUnbounded)
      return {SolveStatus::kUnbounded, 0.0, {}};
    if (rel.status != SolveStatus::kOptimal) return {rel.status, 0.0, {}};
    const int frac_var = most_fractional(model, rel.x, opts_.int_tol);
    if (frac_var < 0) {
      Solution sol = rel;
      sol.status = SolveStatus::kOptimal;
      return sol;
    }
    const double root_obj = dir_sign * rel.objective;
    root = std::make_shared<OpenNode>(
        OpenNode{root_obj, next_seq++, -1, 0.0, 0.0, 0, nullptr, nullptr});
    auto basis = opts_.warm_start
                     ? std::make_shared<const Basis>(std::move(root_basis))
                     : nullptr;
    const auto fv = static_cast<std::size_t>(frac_var);
    const double val = rel.x[fv];
    const auto [blo, bhi] = chain_bounds(root.get(), frac_var, model);
    open.push(std::make_shared<OpenNode>(OpenNode{
        root_obj, next_seq++, frac_var, blo,
        std::min(bhi, std::floor(val)), 0, root, basis}));
    open.push(std::make_shared<OpenNode>(OpenNode{
        root_obj, next_seq++, frac_var, std::max(blo, std::ceil(val)),
        bhi, 0, root, basis}));
  }

  // ---- Wave loop: pop up to `parallel_nodes` best nodes, solve their
  // relaxations in parallel, then merge serially in wave order. ----
  std::vector<NodePtr> wave;
  std::vector<NodePtr> deferred;
  std::vector<Solution> wave_sol(wave_cap);
  std::vector<Basis> wave_basis(wave_cap);
  std::vector<SimplexSolver::SolveStats> wave_stats(wave_cap);
  std::vector<int> slot_of;
  std::vector<char> slot_used;
  ThreadPool* workers = pool();

  while (!open.empty() && last_nodes_ < opts_.max_nodes) {
    if (open.top()->bound >= incumbent_obj - opts_.gap_tol)
      break;  // best-bound pruning: the whole heap is dominated

    // Collect the wave, one node per slot. A node whose preferred slot
    // (the one that solved its parent) is already claimed is deferred to
    // a later wave rather than spilled to a cold slot: sibling nodes
    // share their parent's basis, and solving them back-to-back on the
    // parent's context keeps both on the fast warm path (the first
    // reuses the live tableau, the second restores the snapshot).
    wave.clear();
    deferred.clear();
    slot_used.assign(wave_cap, 0);
    const auto budget =
        static_cast<std::size_t>(opts_.max_nodes - last_nodes_);
    while (wave.size() < std::min(wave_cap, budget) && !open.empty() &&
           open.top()->bound < incumbent_obj - opts_.gap_tol) {
      NodePtr node = open.top();
      open.pop();
      const int want = node->slot;
      const bool routable =
          want >= 0 && static_cast<std::size_t>(want) < wave_cap;
      if (routable && slot_used[static_cast<std::size_t>(want)] != 0) {
        deferred.push_back(std::move(node));
        continue;
      }
      if (routable) slot_used[static_cast<std::size_t>(want)] = 1;
      wave.push_back(std::move(node));
    }
    for (NodePtr& node : deferred) open.push(std::move(node));
    if (wave.empty()) break;

    // Each wave entry runs on its preferred slot (unique by the deferral
    // above); entries without a routable preference fill the free slots
    // in wave order. The assignment depends only on the wave contents,
    // never on thread scheduling.
    slot_of.assign(wave.size(), -1);
    for (std::size_t k = 0; k < wave.size(); ++k) {
      const int want = wave[k]->slot;
      if (want >= 0 && static_cast<std::size_t>(want) < wave_cap)
        slot_of[k] = want;
    }
    slot_used.assign(wave_cap, 0);
    for (std::size_t k = 0; k < wave.size(); ++k)
      if (slot_of[k] >= 0) slot_used[static_cast<std::size_t>(slot_of[k])] = 1;
    for (std::size_t k = 0, next = 0; k < wave.size(); ++k) {
      if (slot_of[k] >= 0) continue;
      while (slot_used[next] != 0) ++next;
      slot_of[k] = static_cast<int>(next);
      slot_used[next] = 1;
    }
    for (std::size_t k = 0; k < wave.size(); ++k)
      ensure_ctx(static_cast<std::size_t>(slot_of[k]));  // before the fork

    auto solve_slot = [&](std::size_t k) {
      thread_local std::vector<int> seen;
      BoundedSimplex& bs = *ctx[static_cast<std::size_t>(slot_of[k])];
      apply_chain(bs, wave[k].get(), seen);
      const Basis* warm =
          opts_.warm_start ? wave[k]->warm.get() : nullptr;
      wave_sol[k] = bs.solve(warm, &wave_basis[k]);
      wave_stats[k] = bs.stats();
    };
    // The slot assignment is a bijection from wave entries to slots, so
    // the worker running index k is the only writer of its simplex and
    // of the k-indexed result arrays.
    if (workers != nullptr && wave.size() > 1)
      workers->parallel_for(wave.size(), solve_slot);
    else
      for (std::size_t k = 0; k < wave.size(); ++k) solve_slot(k);

    // Serial merge in wave order == (bound, seq) order: incumbents and
    // child creation are independent of thread interleaving.
    for (std::size_t k = 0; k < wave.size(); ++k) {
      ++last_nodes_;
      DSP_COUNT("lp.milp_nodes");
      if (wave_stats[k].warm_used) ++last_warm_hits_;
      const NodePtr& node = wave[k];
      // An earlier slot in this wave may have improved the incumbent.
      if (node->bound >= incumbent_obj - opts_.gap_tol) continue;
      const Solution& rel = wave_sol[k];
      if (rel.status != SolveStatus::kOptimal) continue;  // prune
      const double rel_obj = dir_sign * rel.objective;
      if (rel_obj >= incumbent_obj - opts_.gap_tol) continue;

      const int frac_var = most_fractional(model, rel.x, opts_.int_tol);
      if (frac_var < 0) {
        // Integral: new incumbent.
        incumbent = rel;
        incumbent.status = SolveStatus::kOptimal;
        incumbent_obj = rel_obj;
        continue;
      }
      const auto fv = static_cast<std::size_t>(frac_var);
      const double val = rel.x[fv];
      const auto [blo, bhi] = chain_bounds(node.get(), frac_var, model);
      auto basis =
          opts_.warm_start
              ? std::make_shared<const Basis>(std::move(wave_basis[k]))
              : nullptr;
      open.push(std::make_shared<OpenNode>(OpenNode{
          rel_obj, next_seq++, frac_var, blo,
          std::min(bhi, std::floor(val)), slot_of[k], node, basis}));
      open.push(std::make_shared<OpenNode>(OpenNode{
          rel_obj, next_seq++, frac_var, std::max(blo, std::ceil(val)),
          bhi, slot_of[k], node, basis}));
    }
  }

  if (incumbent.status == SolveStatus::kOptimal) {
    // Exhausted the tree => proven optimal; otherwise best-so-far.
    const bool proven = open.empty() ||
                        open.top()->bound >= incumbent_obj - opts_.gap_tol;
    incumbent.status = proven ? SolveStatus::kOptimal : SolveStatus::kNodeLimit;
    return incumbent;
  }
  // No incumbent: an exhausted tree proves there is no integral feasible
  // point; otherwise the node cap stopped us before finding one.
  return {open.empty() ? SolveStatus::kInfeasible : SolveStatus::kNoSolution,
          0.0,
          {}};
}

bool round_to_integers(const Model& model, std::vector<double>& x, double tol) {
  if (x.size() != model.var_count()) return false;
  for (std::size_t i = 0; i < model.var_count(); ++i) {
    const Variable& v = model.var(static_cast<VarId>(i));
    if (!v.is_integer) continue;
    x[i] = std::round(x[i]);
    x[i] = std::clamp(x[i], v.lower, v.upper);
  }
  return model.is_feasible(x, tol);
}

}  // namespace dsp::lp

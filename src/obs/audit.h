// Preemption decision audit trail.
//
// Every Algorithm-1 candidate evaluation (paper §IV) produces one
// PreemptDecision record: who wanted to preempt, which victim was
// examined, the raw priorities, the normalized gap P-tilde = P-hat/P-bar
// the PP filter tested, the rho/epsilon/tau/delta in effect, and how the
// evaluation ended. The engine forwards records to an attached
// PreemptionAuditTrail (Engine::set_audit), emits each one as a
// kPreemptDecision flight-recorder event, and tallies per-outcome counters
// into RunMetrics — this is how throughput changes are attributed to specific
// preemption mechanisms (urgent preemption, the delta window, PP
// suppression, C2 dependency blocking).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.h"
#include "util/thread_annotations.h"
#include "util/time.h"

namespace dsp::obs {

/// How one Algorithm-1 candidate evaluation ended.
enum class PreemptOutcome : std::uint8_t {
  kFired,                ///< A victim was preempted.
  kSuppressedPP,         ///< The normalized-priority gap failed P-tilde > rho.
  kBlockedByDependency,  ///< Every viable victim failed C2 (candidate depends on it).
  kNoVictim,             ///< No running task passed C1 / nothing preemptable.
};

inline constexpr std::size_t kPreemptOutcomeCount = 4;

const char* to_string(PreemptOutcome o);

/// Inverse of to_string; false when `s` names no outcome.
bool parse_outcome(const std::string& s, PreemptOutcome& out);

/// One Algorithm-1 evaluation record.
struct PreemptDecision {
  SimTime time = 0;            ///< Engine time of the evaluation.
  int node = -1;               ///< Node whose queue was scanned.
  Gid candidate = kInvalidGid; ///< Waiting task that wanted the slot.
  Gid victim = kInvalidGid;    ///< Victim fired on / gap-tested (if any).
  double candidate_priority = 0.0;  ///< P-hat term: waiting task's priority.
  double victim_priority = 0.0;     ///< Victim's priority (0 when no victim).
  /// P-tilde = (candidate - victim priority) / P-bar; 0 when PP was not
  /// evaluated (no victim, PP disabled, or P-bar == 0).
  double normalized_gap = 0.0;
  // Parameters in effect at the evaluation.
  double rho = 0.0;
  double delta = 0.0;   ///< Current (possibly adapted) preempting-window fraction.
  SimTime epsilon = 0;
  SimTime tau = 0;
  bool urgent = false;  ///< True for the urgent pass (t^a <= epsilon or t^w >= tau).
  bool pp = false;      ///< True when the normalized-priority filter was enabled.
  PreemptOutcome outcome = PreemptOutcome::kNoVictim;
};

/// Accumulates the decisions of one run; queryable per outcome and
/// exportable as CSV. Attach before Engine::run via Engine::set_audit.
/// Thread-safe: record() may be called from concurrent policy passes;
/// the internal mutex keeps the trail's record order consistent with
/// whatever order the callers serialize on (DSP's mutating passes stay
/// serial, so the order is deterministic).
class PreemptionAuditTrail {
 public:
  void record(const PreemptDecision& d);

  /// Snapshot of the recorded decisions, in record order.
  std::vector<PreemptDecision> decisions() const {
    MutexLock lock(mu_);
    return decisions_;
  }
  std::uint64_t count(PreemptOutcome o) const {
    MutexLock lock(mu_);
    return counts_[static_cast<std::size_t>(o)];
  }
  std::uint64_t total() const {
    MutexLock lock(mu_);
    return decisions_.size();
  }

  /// Decisions with the given outcome, in record order.
  std::vector<PreemptDecision> with_outcome(PreemptOutcome o) const;

  /// Writes the trail as CSV with a header row:
  ///   time_us,node,candidate,victim,candidate_priority,victim_priority,
  ///   normalized_gap,rho,delta,epsilon_us,tau_us,urgent,pp,outcome
  void write_csv(std::ostream& out) const;

  /// Writes the trail as JSON:
  ///   {"audit": {"total": N, "counts": {"fired": n, ...}},
  ///    "decisions": [{"time_us": ..., "node": ..., "candidate": ...,
  ///      "victim": -1|gid, "candidate_priority": ..., "victim_priority": ...,
  ///      "normalized_gap": ..., "rho": ..., "delta": ..., "epsilon_us": ...,
  ///      "tau_us": ..., "urgent": bool, "pp": bool, "outcome": "fired"}]}
  /// Doubles print with enough digits to round-trip through
  /// read_audit_json bit-exactly.
  void write_json(std::ostream& out) const;

  void clear();

 private:
  mutable Mutex mu_;
  std::vector<PreemptDecision> decisions_ DSP_GUARDED_BY(mu_);
  std::array<std::uint64_t, kPreemptOutcomeCount> counts_ DSP_GUARDED_BY(mu_) =
      {};
};

/// Result of parsing an audit-trail JSON file.
struct AuditParseResult {
  std::vector<PreemptDecision> decisions;
  std::string error;  ///< Empty on success.

  bool ok() const { return error.empty(); }
};

/// Reads a trail previously written by write_json. Static analysis
/// (src/analysis audit replay) and external tooling consume this; a
/// malformed document or a record with missing/ill-typed fields yields a
/// non-empty `error`.
AuditParseResult read_audit_json(std::istream& in);
AuditParseResult read_audit_json(const std::string& path);

}  // namespace dsp::obs

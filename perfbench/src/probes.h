// Timing from outside the program: an in-memory span recorder and timing
// decorators around the policy objects the engine calls into.
//
// Every span is recorded by the benchmark around a call into a layer's
// public entry point (WorkloadGenerator::generate, the Engine constructor,
// Engine::run, Scheduler::schedule, PreemptionPolicy::on_epoch); nothing
// inside the program is instrumented. Scheduler::select_next runs 10^5 to
// 10^6 times per run, so it is aggregated as a call count plus busy time
// instead of one span per call.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/dsp_scheduler.h"
#include "sim/policy.h"
#include "sim/scenario.h"

namespace perfbench {

/// Seconds on the steady clock.
double now_s();

struct Span {
  const char* name = "";  ///< Static string: the layer entry point.
  double start_s = 0.0;
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< Index of the enclosing span, or -1.
  std::int32_t pass = 0;     ///< Which benchmark pass recorded it.
};

/// Spans and select_next aggregates of one benchmark invocation, held in
/// memory and written out when the benchmark ends.
class Tracer {
 public:
  struct Dispatch {
    std::uint64_t calls = 0;
    std::uint64_t hits = 0;  ///< Calls that returned a task.
    double busy_s = 0.0;
  };

  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  /// Tags the spans recorded from now on with `pass` and zeroes the
  /// per-pass aggregates (select_next, placements). Spans are kept.
  void begin_pass(std::int32_t pass) {
    pass_ = pass;
    dispatch_ = {};
    placements_ = 0;
  }

  const std::vector<Span>& spans() const { return spans_; }
  Dispatch& dispatch() { return dispatch_; }
  /// Placements returned by Scheduler::schedule.
  std::uint64_t& placements() { return placements_; }

  /// One JSON object per span: {"name","pass","start_s","end_s","parent"}.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::int32_t pass_ = 0;
  Dispatch dispatch_;
  std::uint64_t placements_ = 0;
};

/// Records one span for the enclosing scope; no-op for a null tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Builds the scheduler and preemption policy of a cell with every thread
/// knob pinned to 1, so DSP_THREADS in the caller's environment cannot
/// change what is measured. DSP policies are built directly (the standard
/// factory leaves their thread count to the environment); the baselines
/// come from dsp::StandardScenarioFactory. With a tracer, both objects are
/// wrapped in timing decorators.
class BenchFactory final : public dsp::ScenarioFactory {
 public:
  BenchFactory(dsp::ScheduleMode mode, Tracer* tracer)
      : mode_(mode), tracer_(tracer) {}

  std::unique_ptr<dsp::Scheduler> make_scheduler(
      const dsp::ScenarioSpec& spec) const override;
  std::unique_ptr<dsp::PreemptionPolicy> make_policy(
      const dsp::ScenarioSpec& spec) const override;

 private:
  dsp::ScheduleMode mode_;
  Tracer* tracer_;
};

}  // namespace perfbench

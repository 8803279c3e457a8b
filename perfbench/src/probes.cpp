#include "probes.h"

#include <chrono>
#include <ostream>
#include <utility>

#include "core/preemption.h"
#include "scenarios/standard.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, now_s(), 0.0, open_, pass_});
  open_ = id;
  return id;
}

void Tracer::end(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = now_s();
  open_ = s.parent;
}

void Tracer::write_jsonl(std::ostream& out) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"pass\":" << s.pass
        << ",\"start_s\":" << s.start_s - origin
        << ",\"end_s\":" << s.end_s - origin << ",\"parent\":" << s.parent
        << "}\n";
  }
}

namespace {

class TimedScheduler final : public dsp::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<dsp::Scheduler> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }

  std::vector<dsp::TaskPlacement> schedule(const std::vector<dsp::JobId>& jobs,
                                           dsp::Engine& engine) override {
    ScopedSpan span(&tracer_, "sched.schedule");
    std::vector<dsp::TaskPlacement> placed = inner_->schedule(jobs, engine);
    tracer_.placements() += placed.size();
    return placed;
  }

  dsp::Gid select_next(int node, dsp::Engine& engine,
                       const std::vector<std::uint8_t>& excluded) override {
    const double t0 = now_s();
    const dsp::Gid g = inner_->select_next(node, engine, excluded);
    Tracer::Dispatch& d = tracer_.dispatch();
    d.busy_s += now_s() - t0;
    ++d.calls;
    if (g != dsp::kInvalidGid) ++d.hits;
    return g;
  }

  bool hoards_slots() const override { return inner_->hoards_slots(); }

 private:
  std::unique_ptr<dsp::Scheduler> inner_;
  Tracer& tracer_;
};

class TimedPolicy final : public dsp::PreemptionPolicy {
 public:
  TimedPolicy(std::unique_ptr<dsp::PreemptionPolicy> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }
  dsp::CheckpointMode checkpoint_mode() const override {
    return inner_->checkpoint_mode();
  }
  void on_epoch(dsp::Engine& engine) override {
    ScopedSpan span(&tracer_, "preempt.on_epoch");
    inner_->on_epoch(engine);
  }

 private:
  std::unique_ptr<dsp::PreemptionPolicy> inner_;
  Tracer& tracer_;
};

}  // namespace

std::unique_ptr<dsp::Scheduler> BenchFactory::make_scheduler(
    const dsp::ScenarioSpec& spec) const {
  std::unique_ptr<dsp::Scheduler> s;
  if (spec.sched == dsp::SchedKind::kDsp) {
    dsp::DspScheduler::Options options;
    options.mode = mode_;
    options.gamma = spec.knobs.gamma;
    options.locality_aware = spec.knobs.locality_aware;
    options.ilp_threads = 1;
    s = std::make_unique<dsp::DspScheduler>(options);
  } else {
    s = dsp::StandardScenarioFactory{}.make_scheduler(spec);
  }
  if (tracer_ == nullptr) return s;
  return std::make_unique<TimedScheduler>(std::move(s), *tracer_);
}

std::unique_ptr<dsp::PreemptionPolicy> BenchFactory::make_policy(
    const dsp::ScenarioSpec& spec) const {
  std::unique_ptr<dsp::PreemptionPolicy> p;
  if (spec.policy == dsp::PolicyKind::kDsp ||
      spec.policy == dsp::PolicyKind::kDspNoPp) {
    dsp::DspParams params = dsp::StandardScenarioFactory::dsp_params(spec);
    params.normalized_pp = spec.policy == dsp::PolicyKind::kDsp &&
                           params.normalized_pp;
    params.threads = 1;
    p = std::make_unique<dsp::DspPreemption>(params);
  } else {
    p = dsp::StandardScenarioFactory{}.make_policy(spec);
  }
  if (p == nullptr || tracer_ == nullptr) return p;
  return std::make_unique<TimedPolicy>(std::move(p), *tracer_);
}

}  // namespace perfbench

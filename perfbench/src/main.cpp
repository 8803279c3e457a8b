// dsp_perfbench: the repository benchmark's binary.
//
//   dsp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--span-dir <dir>]
//
// Runs the named workload's scenarios back to back on one thread (a closed
// loop with one client) and prints the metrics as a table, followed by one
// JSON line {"correct","attempted","failed","metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 wraps the policies in timing
// decorators and reports the per-layer metrics. perfbench/README.md
// documents the workloads and every metric.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checks.h"
#include "heap.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "probes.h"
#include "reference.h"
#include "sim/engine.h"
#include "trace/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Environment variables the program would otherwise consult. The benchmark
// pins each of them explicitly and reports what the caller had set.
constexpr const char* kIgnoredEnv[] = {"DSP_THREADS", "DSP_EVENT_LOG",
                                       "DSP_EVENT_RING", "DSP_EVENT_SAMPLE"};
// The flight recorder of recorded cells streams here; the bytes are
// formatted and written, then discarded by the kernel, so disk stays out
// of the timings.
constexpr const char* kDiscardSink = "/dev/null";
// Setup is cheap next to a run, so repeat it to at least this many
// samples and this much setup time (small set-ups are the noisiest).
constexpr std::size_t kMinSetupSamples = 9;
constexpr double kMinSetupTotalS = 1.0;
constexpr std::size_t kMaxSetupSamples = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir;
};

// Registry probes the program records itself (DSP_PROFILE / DSP_COUNT);
// read after each cell, since cells run one at a time.
struct RegistryProbes {
  std::uint64_t engine_events = 0;
  double priority_busy_s = 0.0;
  std::uint64_t simplex_solves = 0;
  double simplex_busy_s = 0.0;
  std::uint64_t warm_hit = 0;
  std::uint64_t warm_miss = 0;
};

RegistryProbes read_registry() {
  dsp::obs::MetricsRegistry& r = dsp::obs::default_registry();
  RegistryProbes p;
  p.engine_events = r.counter("engine.events")->value();
  p.priority_busy_s = r.histogram("priority.compute_all_s")->snapshot().sum;
  const auto lp = r.histogram("lp.simplex_solve_s")->snapshot();
  p.simplex_solves = lp.count;
  p.simplex_busy_s = lp.sum;
  p.warm_hit = r.counter("lp.warm_start_hit")->value();
  p.warm_miss = r.counter("lp.warm_start_miss")->value();
  return p;
}

struct CellRun {
  double generate_s = 0.0;
  double cluster_s = 0.0;
  double policy_s = 0.0;
  double engine_build_s = 0.0;
  double run_s = 0.0;
  dsp::RunMetrics metrics;
  Expectation expectation;
  std::uint64_t peak_heap = 0;
  std::uint64_t allocs = 0;
  std::uint64_t recorder_events = 0;
  RegistryProbes probes;

  double setup_s() const {
    return generate_s + cluster_s + policy_s + engine_build_s;
  }
};

// One cell: set up (timed), then run the engine (timed) unless only the
// setup is wanted.
CellRun run_cell(const Cell& cell, Tracer* tracer, bool record_events,
                 bool run) {
  dsp::obs::default_registry().reset();
  heap::reset_peak();
  const std::uint64_t allocs0 = heap::stats().allocs;
  CellRun out;
  const dsp::ScenarioSpec& spec = cell.spec;

  // Built before setup timing starts: the log is the benchmark's, not the
  // program's, and a capacity-1 stub keeps DSP_EVENT_LOG disarmed.
  std::unique_ptr<dsp::obs::EventLog> log;
  if (record_events) {
    log = std::make_unique<dsp::obs::EventLog>();
    if (!log->open_sink(kDiscardSink)) {
      std::fprintf(stderr, "perfbench: cannot open %s\n", kDiscardSink);
      std::exit(2);
    }
  } else {
    log = std::make_unique<dsp::obs::EventLog>(/*capacity=*/1);
  }

  double t = now_s();
  auto lap = [&t](double& into) {
    const double now = now_s();
    into = now - t;
    t = now;
  };
  std::optional<dsp::JobSet> jobs;
  {
    ScopedSpan span(tracer, "setup.generate");
    jobs.emplace(dsp::WorkloadGenerator(spec.workload, spec.seed).generate());
  }
  lap(out.generate_s);
  std::optional<dsp::ClusterSpec> cluster;
  {
    ScopedSpan span(tracer, "setup.make_cluster");
    cluster.emplace(dsp::make_cluster(spec.cluster));
  }
  lap(out.cluster_s);
  out.expectation = expect(*jobs, *cluster);  // not part of the setup time
  t = now_s();
  const BenchFactory factory(cell.mode, tracer);
  std::unique_ptr<dsp::Scheduler> scheduler;
  std::unique_ptr<dsp::PreemptionPolicy> policy;
  {
    ScopedSpan span(tracer, "setup.policies");
    scheduler = factory.make_scheduler(spec);
    policy = factory.make_policy(spec);
  }
  lap(out.policy_s);
  std::unique_ptr<dsp::Engine> engine;
  {
    ScopedSpan span(tracer, "setup.engine");
    engine = std::make_unique<dsp::Engine>(std::move(*cluster),
                                           std::move(*jobs), *scheduler,
                                           policy.get(), spec.engine);
  }
  lap(out.engine_build_s);
  engine->set_event_log(log.get());
  if (run) {
    ScopedSpan span(tracer, "engine.run");
    t = now_s();
    out.metrics = engine->run();
    lap(out.run_s);
  }
  out.peak_heap = heap::stats().peak_bytes;
  out.allocs = heap::stats().allocs - allocs0;
  out.recorder_events = log->accepted();
  out.probes = read_registry();
  return out;
}

// ---------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

// The highest of these percentiles with at least ten samples beyond it
// (p50 when there are fewer than twenty samples).
double tail_pct(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

// ---------------------------------------------------------------------
// Metric output.
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ---------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  int run();

 private:
  using Pass = std::vector<CellRun>;

  Pass pass(const Workload& w, Tracer* tracer, bool record_events,
            bool run = true);
  void check(const Workload& w, const Pass& p);
  std::vector<Metric> end_to_end(const Workload& w);
  std::vector<Metric> per_layer(const Workload& w);
  void print_settings(const Workload& w) const;

  static double wall(const Pass& p) {
    double s = 0.0;
    for (const CellRun& c : p) s += c.run_s;
    return s;
  }
  static double setup(const Pass& p) {
    double s = 0.0;
    for (const CellRun& c : p) s += c.setup_s();
    return s;
  }
  // Multiplies this invocation's host times into calibrated ones
  // (reference.h): nominal kernel time over the median measured one.
  double calibration() const {
    return kReferenceNominalS / median(reference_s_);
  }

  Args args_;
  // First outcome of each cell, keyed by workload, cell and job count: the
  // reference every repeat of the cell must reproduce.
  std::map<std::string, Outcome> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool self_test_ok_ = true;
  Tracer tracer_;
  std::vector<double> reference_s_;  // every reference kernel time
  // The workload at half its job count: the warm-up pass (lazy set-up,
  // heap growth, caches) at a fraction of a full pass's cost, and the
  // second point of the host-time growth exponent.
  Workload half_;
};

Bench::Pass Bench::pass(const Workload& w, Tracer* tracer, bool record_events,
                        bool run) {
  // One reference kernel sample per measured pass tracks the host's speed.
  if (run) reference_s_.push_back(reference_kernel_s());
  Pass p;
  for (const Cell& c : w.cells)
    p.push_back(run_cell(c, tracer, record_events && c.record_events, run));
  if (run) check(w, p);
  return p;
}

void Bench::check(const Workload& w, const Pass& p) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    const std::string key =
        w.name + "/" + w.cells[i].spec.name + "/" +
        std::to_string(w.cells[i].spec.workload.job_count);
    const Outcome o = outcome_of(p[i].metrics);
    const auto [it, fresh] = first_.emplace(key, o);
    if (fresh) {
      for (const std::string& miss : self_test(p[i].metrics, p[i].expectation)) {
        std::printf("# self-test: the %s check did not fire on %s\n",
                    miss.c_str(), key.c_str());
        self_test_ok_ = false;
      }
    }
    ++attempted_;
    const std::vector<std::string> failures =
        check_run(p[i].metrics, p[i].expectation, it->second);
    if (!failures.empty()) ++failed_;
    for (const std::string& f : failures)
      std::printf("# check failed: %s: %s\n", key.c_str(), f.c_str());
  }
}

std::vector<Metric> Bench::end_to_end(const Workload& w) {
  pass(half_, nullptr, true);  // warm-up
  std::vector<double> walls, setups;
  std::uint64_t peak = 0;
  const double start = now_s();
  Pass last;
  do {
    last = pass(w, nullptr, true);
    walls.push_back(wall(last));
    setups.push_back(setup(last));
    for (const CellRun& c : last) peak = std::max(peak, c.peak_heap);
  } while (now_s() - start < args_.seconds);
  double setup_total = 0.0;
  for (const double x : setups) setup_total += x;
  while (setups.size() < kMinSetupSamples ||
         (setup_total < kMinSetupTotalS && setups.size() < kMaxSetupSamples)) {
    setups.push_back(setup(pass(w, nullptr, false, /*run=*/false)));
    setup_total += setups.back();
  }

  const double n = static_cast<double>(last.size());
  double tasks = 0, makespan = 0, waiting = 0;
  for (const CellRun& c : last) {
    tasks += static_cast<double>(c.metrics.tasks_finished);
    makespan += dsp::to_seconds(c.metrics.makespan) / n;
    waiting += c.metrics.avg_job_waiting_s() / n;
  }
  const double cal = calibration();
  const double wall_s = median(walls) * cal;
  std::printf("# %zu measured passes; raw wall_s per pass:", walls.size());
  for (const double x : walls) std::printf(" %.4f", x);
  std::printf("\n# reference kernel: median %.3f ms of %zu samples, nominal "
              "%.3f ms; calibration x%.4f\n",
              median(reference_s_) * 1e3, reference_s_.size(),
              kReferenceNominalS * 1e3, cal);
  return {
      {"wall_s", wall_s, "s"},
      {"sim_tasks_per_s", tasks / wall_s, "1/s"},
      {"setup_s", median(setups) * cal, "s"},
      {"peak_heap_mb", static_cast<double>(peak) / 1e6, "MB"},
      {"makespan_s", makespan, "s"},
      {"avg_job_waiting_s", waiting, "s"},
      {"scenario_ok_frac",
       static_cast<double>(attempted_ - failed_) /
           static_cast<double>(attempted_),
       "frac"},
  };
}

std::vector<Metric> Bench::per_layer(const Workload& w) {
  pass(half_, nullptr, true);  // warm-up
  const bool recorded = std::any_of(w.cells.begin(), w.cells.end(),
                                    [](const Cell& c) { return c.record_events; });

  // Untraced, traced and (where a cell records) recorder-off passes
  // alternate, so the overhead and recorder figures compare passes made
  // under the same host conditions. Per-layer figures are medians over
  // the traced passes.
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> plain_walls, stub_walls, epoch_us, round_ms;
  Pass plain;
  std::size_t spans_per_pass = 0;
  const double start = now_s();
  std::int32_t pass_no = 0;
  do {
    plain = pass(w, nullptr, true);
    plain_walls.push_back(wall(plain));
    if (recorded) stub_walls.push_back(wall(pass(w, nullptr, false)));
    tracer_.begin_pass(++pass_no);
    const std::size_t span0 = tracer_.spans().size();
    const Pass p = pass(w, &tracer_, true);
    spans_per_pass = tracer_.spans().size() - span0;
    double sched_busy = 0, epoch_busy = 0, rounds = 0, epochs = 0;
    for (std::size_t i = span0; i < tracer_.spans().size(); ++i) {
      const Span& s = tracer_.spans()[i];
      const double d = s.end_s - s.start_s;
      if (std::strcmp(s.name, "sched.schedule") == 0) {
        sched_busy += d;
        ++rounds;
        round_ms.push_back(d * 1e3);
      } else if (std::strcmp(s.name, "preempt.on_epoch") == 0) {
        epoch_busy += d;
        ++epochs;
        epoch_us.push_back(d * 1e6);
      }
    }
    const Tracer::Dispatch& disp = tracer_.dispatch();
    const double run_s = wall(p);
    double generate = 0, build = 0, events = 0, prio = 0, solves = 0,
           simplex = 0, hit = 0, miss = 0, evals = 0, fired = 0, pp = 0,
           no_victim = 0, rec = 0, deadline = 0, disorders = 0;
    for (const CellRun& c : p) {
      generate += c.generate_s;
      build += c.engine_build_s;
      events += static_cast<double>(c.probes.engine_events);
      prio += c.probes.priority_busy_s;
      solves += static_cast<double>(c.probes.simplex_solves);
      simplex += c.probes.simplex_busy_s;
      hit += static_cast<double>(c.probes.warm_hit);
      miss += static_cast<double>(c.probes.warm_miss);
      evals += static_cast<double>(c.metrics.preempt_evaluations);
      fired += static_cast<double>(c.metrics.preemptions);
      pp += static_cast<double>(c.metrics.suppressed_preemptions);
      no_victim += static_cast<double>(c.metrics.preempt_no_victim);
      rec += static_cast<double>(c.recorder_events);
      deadline += c.metrics.throughput_jobs_per_hour() /
                  static_cast<double>(p.size());
      disorders += static_cast<double>(c.metrics.disorders);
    }
    const double self = run_s - sched_busy - epoch_busy - disp.busy_s;
    auto add = [&samples](const char* k, double v) { samples[k].push_back(v); };
    add("trace.wall_s", run_s);
    add("setup.generate_s", generate);
    add("setup.engine_build_s", build);
    add("engine.self_s", self);
    add("engine.self_frac", run_s > 0 ? self / run_s : 0.0);
    add("engine.events", events);
    add("engine.ns_per_event", events > 0 ? self * 1e9 / events : 0.0);
    add("sched.rounds", rounds);
    add("sched.busy_s", sched_busy);
    add("sched.busy_frac", run_s > 0 ? sched_busy / run_s : 0.0);
    add("sched.placements", static_cast<double>(tracer_.placements()));
    add("dispatch.calls", static_cast<double>(disp.calls));
    add("dispatch.busy_s", disp.busy_s);
    add("dispatch.busy_frac", run_s > 0 ? disp.busy_s / run_s : 0.0);
    add("dispatch.disorders", disorders);
    add("outcome.deadline_jobs_per_h", deadline);
    add("dispatch.hit_ratio",
        disp.calls ? static_cast<double>(disp.hits) /
                         static_cast<double>(disp.calls)
                   : 0.0);
    add("preempt.epochs", epochs);
    add("preempt.busy_s", epoch_busy);
    add("preempt.busy_frac", run_s > 0 ? epoch_busy / run_s : 0.0);
    add("priority.busy_s", prio);
    add("preempt.evaluations", evals);
    add("preempt.fired", fired);
    add("preempt.fire_ratio", evals > 0 ? fired / evals : 0.0);
    add("preempt.suppressed_pp", pp);
    add("preempt.no_victim", no_victim);
    add("lp.simplex_solves", solves);
    add("lp.simplex_busy_s", simplex);
    add("lp.busy_frac", run_s > 0 ? simplex / run_s : 0.0);
    add("lp.warm_start_hit", hit);
    add("lp.warm_start_miss", miss);
    add("obs.events", rec);
  } while (now_s() - start < args_.seconds);

  std::vector<Metric> out;
  auto emit = [&](const char* name, const char* unit) {
    out.push_back({name, median(samples.at(name)), unit});
  };
  const double traced_wall = median(samples.at("trace.wall_s"));
  emit("setup.generate_s", "s");
  emit("setup.engine_build_s", "s");
  double tasks = 0;
  for (const CellRun& c : plain)
    tasks += static_cast<double>(c.expectation.tasks);
  out.push_back({"setup.tasks", tasks, "count"});
  emit("engine.self_s", "s");
  emit("engine.self_frac", "frac");
  emit("engine.events", "count");
  emit("engine.ns_per_event", "ns");
  emit("sched.rounds", "count");
  emit("sched.busy_s", "s");
  emit("sched.busy_frac", "frac");
  std::sort(round_ms.begin(), round_ms.end());
  const double round_tail = tail_pct(round_ms.size());
  out.push_back({"sched.round_samples", static_cast<double>(round_ms.size()),
                 "count"});
  out.push_back({"sched.round_p50_ms", percentile(round_ms, 50), "ms"});
  out.push_back({"sched.round_tail_pct", round_tail, "%"});
  out.push_back({"sched.round_tail_ms", percentile(round_ms, round_tail), "ms"});
  emit("sched.placements", "count");
  emit("dispatch.calls", "count");
  emit("dispatch.busy_s", "s");
  emit("dispatch.busy_frac", "frac");
  emit("dispatch.hit_ratio", "frac");
  emit("dispatch.disorders", "count");
  emit("preempt.epochs", "count");
  emit("preempt.busy_s", "s");
  emit("preempt.busy_frac", "frac");
  std::sort(epoch_us.begin(), epoch_us.end());
  const double epoch_tail = tail_pct(epoch_us.size());
  out.push_back({"preempt.epoch_samples", static_cast<double>(epoch_us.size()),
                 "count"});
  out.push_back({"preempt.epoch_p50_us", percentile(epoch_us, 50), "us"});
  out.push_back({"preempt.epoch_tail_pct", epoch_tail, "%"});
  out.push_back({"preempt.epoch_tail_us", percentile(epoch_us, epoch_tail),
                 "us"});
  emit("priority.busy_s", "s");
  emit("preempt.evaluations", "count");
  emit("preempt.fired", "count");
  emit("preempt.fire_ratio", "frac");
  emit("preempt.suppressed_pp", "count");
  emit("preempt.no_victim", "count");
  emit("lp.simplex_solves", "count");
  emit("lp.simplex_busy_s", "s");
  emit("lp.busy_frac", "frac");
  emit("lp.warm_start_hit", "count");
  emit("lp.warm_start_miss", "count");
  emit("obs.events", "count");
  emit("outcome.deadline_jobs_per_h", "1/h");

  // Recorder cost: the recorded cells with the capacity-1 stub instead.
  const double plain_wall = median(plain_walls);
  out.push_back({"obs.recorder_s",
                 recorded ? plain_wall - median(stub_walls) : 0.0, "s"});

  double allocs = 0;
  for (const CellRun& c : plain) allocs += static_cast<double>(c.allocs);
  out.push_back({"heap.allocs", allocs, "count"});
  out.push_back({"heap.allocs_per_task", tasks > 0 ? allocs / tasks : 0.0,
                 "count"});

  // Host-time growth from half the stated job count to the full one.
  std::vector<double> half_walls;
  for (int i = 0; i < 3; ++i)
    half_walls.push_back(wall(pass(half_, nullptr, true)));
  const double half_wall = median(half_walls);
  out.push_back({"sim.host_growth_exp",
                 half_wall > 0 ? std::log(plain_wall / half_wall) / std::log(2.0)
                               : 0.0,
                 "1"});
  out.push_back({"trace.overhead_frac", traced_wall / plain_wall - 1.0, "frac"});
  out.push_back({"trace.spans", static_cast<double>(spans_per_pass), "count"});
  out.push_back({"trace.passes", static_cast<double>(pass_no), "count"});
  out.push_back({"host.wall_raw_s", plain_wall, "s"});
  out.push_back({"host.ref_kernel_ms", median(reference_s_) * 1e3, "ms"});
  return out;
}

void Bench::print_settings(const Workload& w) const {
  std::printf("# workload %s, seed %llu, %zu cell(s), --seconds %g, --trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args_.seed),
              w.cells.size(), args_.seconds, args_.trace ? 1 : 0);
  for (const Cell& c : w.cells) {
    std::printf("#   cell %-14s %s x %zu nodes, %zu jobs @ scale %g, %g jobs/min, "
                "sched %s (%s), policy %s, event log %s\n",
                c.spec.name.c_str(), dsp::to_string(c.spec.cluster.profile),
                dsp::make_cluster(c.spec.cluster).size(),
                c.spec.workload.job_count, c.spec.workload.task_scale,
                c.spec.workload.min_arrival_rate, dsp::to_string(c.spec.sched),
                dsp::to_string(c.mode), dsp::to_string(c.spec.policy),
                c.record_events ? "JSONL to /dev/null" : "capacity-1 stub");
  }
  std::printf("# settings: build %s; DspParams::threads 1; ilp_threads 1; "
              "one thread, one process\n",
              DSP_PERFBENCH_BUILD_TYPE);
  for (const char* name : kIgnoredEnv) {
    if (const char* v = std::getenv(name))
      std::printf("# settings: %s=%s in the environment is ignored\n", name, v);
  }
}

int Bench::run() {
  Workload w;
  if (!make_workload(args_.workload, args_.seed, 1.0, w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args_.workload.c_str());
    return 2;
  }
  make_workload(args_.workload, args_.seed, 0.5, half_);
  print_settings(w);
  const std::vector<Metric> metrics =
      args_.trace ? per_layer(w) : end_to_end(w);

  if (args_.trace && !args_.span_dir.empty()) {
    const std::string path = args_.span_dir + "/spans-" + w.name + "-seed" +
                             std::to_string(args_.seed) + ".jsonl";
    std::ofstream spans(path);
    tracer_.write_jsonl(spans);
    std::printf("# %zu spans written to %s\n", tracer_.spans().size(),
                path.c_str());
  }
  for (const Metric& m : metrics)
    std::printf("# %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  const bool correct = self_test_ok_ && failed_ == 0 && attempted_ > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::string_view(v) == "1";
    } else if (flag == "--span-dir") {
      a.span_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dsp_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--span-dir <dir>]\n");
    return 2;
  }
  return perfbench::Bench(std::move(args)).run();
}

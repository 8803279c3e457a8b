#include "workloads.h"

#include <cmath>

namespace perfbench {
namespace {

// Arrival rates are pinned (min = max) rather than drawn from the paper's
// [2, 5] jobs/min per workload, so that the offered load, and with it every
// simulated metric and the host time, varies little from seed to seed.
dsp::ScenarioSpec base_spec(const char* name, dsp::ClusterProfile profile,
                            std::size_t jobs, double task_scale,
                            double jobs_per_min, std::uint64_t seed,
                            double size) {
  dsp::ScenarioSpec s;
  s.name = name;
  s.cluster.profile = profile;
  s.workload.job_count = static_cast<std::size_t>(
      std::lround(static_cast<double>(jobs) * size));
  s.workload.task_scale = task_scale;
  s.workload.min_arrival_rate = jobs_per_min;
  s.workload.max_arrival_rate = jobs_per_min;
  s.seed = seed;
  return s;
}

}  // namespace

bool make_workload(std::string_view name, std::uint64_t seed, double size,
                   Workload& out) {
  out = Workload{std::string(name), {}};
  if (name == "ec2-backlog") {
    // Overloaded EC2 testbed: the backlog grows, so the epoch priority
    // pass dominates.
    out.cells.push_back({base_spec("ec2-dsp", dsp::ClusterProfile::kEc2, 1000,
                                   0.1, 2.0, seed, size)});
  } else if (name == "real-steady") {
    // Real-cluster testbed below saturation: the queue stays short and
    // time spreads over scheduling, epochs and the engine itself.
    out.cells.push_back({base_spec("real-dsp",
                                   dsp::ClusterProfile::kRealCluster, 6000,
                                   0.1, 2.1, seed, size)});
  } else if (name == "baseline-grid") {
    // Fig. 5-7 baselines on one 750-job workload, flight recorder on.
    struct Pair {
      const char* name;
      dsp::SchedKind sched;
      dsp::PolicyKind policy;
    };
    const Pair pairs[] = {
        {"aalo", dsp::SchedKind::kAalo, dsp::PolicyKind::kNone},
        {"tetris-simdep", dsp::SchedKind::kTetrisSimDep, dsp::PolicyKind::kNone},
        {"tetris-nodep", dsp::SchedKind::kTetrisNoDep, dsp::PolicyKind::kNone},
        {"amoeba", dsp::SchedKind::kDsp, dsp::PolicyKind::kAmoeba},
        {"natjam", dsp::SchedKind::kDsp, dsp::PolicyKind::kNatjam},
        {"srpt", dsp::SchedKind::kDsp, dsp::PolicyKind::kSrpt},
    };
    for (const Pair& p : pairs) {
      Cell c{base_spec(p.name, dsp::ClusterProfile::kRealCluster, 500, 0.1,
                       5.0, seed, size)};
      c.spec.sched = p.sched;
      c.spec.policy = p.policy;
      c.record_events = true;
      out.cells.push_back(std::move(c));
    }
  } else if (name == "ilp-offline") {
    // Small uniform cluster scheduled offline by the paper's LP relaxation:
    // the only workload that reaches lp/. Small jobs keep each period's LP
    // at a few dozen tasks; larger LPs have a heavy solve-time tail (single
    // solves of over 10 s), which would make host time a lottery on the
    // seed. No online preemption: its epochs would take 8-11% of the run.
    Cell c{base_spec("uniform-relax", dsp::ClusterProfile::kUniform, 4800,
                     0.003, 1.2, seed, size)};
    c.spec.cluster.nodes = 3;
    c.spec.policy = dsp::PolicyKind::kNone;
    c.mode = dsp::ScheduleMode::kRelaxRound;
    out.cells.push_back(std::move(c));
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench

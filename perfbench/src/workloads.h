// The benchmark's workloads. Each is a list of cells (one scenario each)
// that a benchmark pass runs back to back on one thread. Why each was
// chosen, and which layer it loads, is recorded in perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/dsp_scheduler.h"
#include "sim/scenario.h"

namespace perfbench {

struct Cell {
  dsp::ScenarioSpec spec;
  dsp::ScheduleMode mode = dsp::ScheduleMode::kHeuristic;
  /// Stream the flight recorder as JSONL to a discarded sink; otherwise
  /// the engine gets a capacity-1 stub log.
  bool record_events = false;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
};

/// Builds workload `name` with its jobs drawn from `seed`. `size` scales
/// every cell's job count (1 = the workload's stated size; the traced run
/// also measures 0.5 for the host-time growth exponent). False for an
/// unknown name.
bool make_workload(std::string_view name, std::uint64_t seed, double size,
                   Workload& out);

}  // namespace perfbench

// Output checks for every scenario run the benchmark makes.
//
//  - jobs_finished and tasks_finished equal the generated JobSet's counts;
//  - the makespan is at least the trivial lower bound behind the LP
//    relaxations of Murray-Khuller-Chao: the larger of
//      max over jobs (arrival offset + critical path at the fastest node), and
//      total work / aggregate slot rate (each slot runs at its node's rate);
//  - repeats of a cell within one invocation give identical simulated
//    metrics (Outcome below).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dag/job.h"
#include "sim/cluster.h"
#include "sim/run_metrics.h"

namespace perfbench {

/// What a correct run of a given JobSet on a given cluster must satisfy.
struct Expectation {
  std::uint64_t jobs = 0;
  std::uint64_t tasks = 0;
  double critical_path_bound_s = 0.0;
  double work_bound_s = 0.0;
  double makespan_bound_s() const;
};

Expectation expect(const dsp::JobSet& jobs, const dsp::ClusterSpec& cluster);

/// The simulated results of one run, compared bit for bit across repeats.
struct Outcome {
  std::int64_t makespan_us = 0;
  std::uint64_t jobs_finished = 0;
  std::uint64_t tasks_finished = 0;
  std::uint64_t jobs_met_deadline = 0;
  std::uint64_t disorders = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t preempt_evaluations = 0;
  double avg_job_waiting_s = 0.0;
  double slot_utilization = 0.0;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const dsp::RunMetrics& m);

/// Failed checks of one run, as messages; empty when the run is correct.
/// `first` is the outcome of the cell's first run in this invocation (the
/// run itself when it is the first).
std::vector<std::string> check_run(const dsp::RunMetrics& m,
                                   const Expectation& e, const Outcome& first);

/// Corrupts copies of a correct run's metrics one way per check and
/// confirms each check fires. Returns the checks that failed to fire.
std::vector<std::string> self_test(const dsp::RunMetrics& good,
                                   const Expectation& e);

}  // namespace perfbench

#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace dsp::obs {
namespace {

void write_instant(std::ostream& out, bool& first, const char* name,
                   SimTime ts, std::size_t pid, const char* args_json) {
  if (!first) out << ",\n";
  first = false;
  out << "{\"name\":";
  write_json_string(out, name);
  out << ",\"ph\":\"i\",\"s\":\"g\",\"ts\":" << ts << ",\"pid\":" << pid
      << ",\"tid\":0,\"args\":" << args_json << '}';
}

}  // namespace

void write_chrome_trace(std::ostream& out, const TimelineRecorder& recorder,
                        std::size_t node_count) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // Process metadata: one "process" per node plus one for cluster-wide
  // instants (rounds/epochs/job completions).
  for (std::size_t k = 0; k <= node_count; ++k) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << k
        << ",\"tid\":0,\"args\":{\"name\":";
    if (k < node_count)
      write_json_string(out, "node " + std::to_string(k));
    else
      write_json_string(out, "cluster");
    out << "}}";
  }

  // Slot intervals, packed into per-node lanes so concurrent tasks of a
  // multi-slot node render on separate rows.
  std::vector<Interval> sorted = recorder.intervals();
  std::sort(sorted.begin(), sorted.end(), [](const Interval& a, const Interval& b) {
    if (a.node != b.node) return a.node < b.node;
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.end < b.end;
  });
  std::vector<SimTime> lane_end;  // per lane of the current node
  int current_node = -2;
  for (const Interval& iv : sorted) {
    if (iv.node != current_node) {
      current_node = iv.node;
      lane_end.clear();
    }
    std::size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > iv.begin) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = iv.end;

    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":";
    write_json_string(out, "task " + std::to_string(iv.task));
    out << ",\"cat\":";
    write_json_string(out, to_string(iv.kind));
    out << ",\"ph\":\"X\",\"ts\":" << iv.begin << ",\"dur\":" << iv.duration()
        << ",\"pid\":" << iv.node << ",\"tid\":" << lane
        << ",\"args\":{\"task\":" << iv.task << ",\"kind\":";
    write_json_string(out, to_string(iv.kind));
    out << ",\"outcome\":";
    write_json_string(out, to_string(iv.outcome));
    out << "}}";
  }

  // Cluster-wide instants on the extra pid.
  char args[96];
  for (const auto& r : recorder.rounds()) {
    std::snprintf(args, sizeof args, "{\"jobs\":%zu,\"placements\":%zu}",
                  r.jobs, r.placements);
    write_instant(out, first, "schedule round", r.time, node_count, args);
  }
  for (SimTime t : recorder.epochs())
    write_instant(out, first, "preemption epoch", t, node_count, "{}");
  for (const auto& [t, job] : recorder.job_completions()) {
    std::snprintf(args, sizeof args, "{\"job\":%u}", job);
    write_instant(out, first, "job complete", t, node_count, args);
  }

  out << "\n]}\n";
}

}  // namespace dsp::obs

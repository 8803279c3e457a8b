#include "sim/recorder.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>

namespace dsp {
namespace {

// Payloads are doubles and may come from a parsed file: clamp before the
// integer conversion, which is undefined out of range (NaN reads as 0).
std::int64_t whole(double v) {
  constexpr double kMax = 9007199254740992.0;  // 2^53, exact in a double
  return v > 0.0 ? static_cast<std::int64_t>(std::min(v, kMax)) : 0;
}

}  // namespace

const char* to_string(IntervalKind k) {
  switch (k) {
    case IntervalKind::kOverhead: return "overhead";
    case IntervalKind::kRun: return "run";
    case IntervalKind::kHoard: return "hoard";
  }
  return "?";
}

const char* to_string(Interval::End e) {
  switch (e) {
    case Interval::End::kFinished: return "finished";
    case Interval::End::kPreempted: return "preempted";
    case Interval::End::kEvicted: return "evicted";
  }
  return "?";
}

TimelineFoldResult TimelineRecorder::from_events(
    std::span<const obs::Event> events) {
  TimelineFoldResult fold;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].seq != i) {
      fold.error = "event log does not hold a whole run: expected seq " +
                   std::to_string(i) + ", found seq " +
                   std::to_string(events[i].seq);
      return fold;
    }
  }

  // The slot each task currently occupies. A map, not a gid-indexed
  // vector: a hostile log's task ids must not size an allocation.
  struct Open {
    int node = -1;
    IntervalKind kind = IntervalKind::kRun;
    SimTime begin = 0;
    SimTime overhead = 0;
    bool active = false;
  };
  std::map<Gid, Open> open;
  TimelineRecorder& r = fold.timeline;
  const auto close = [&r](Gid g, Open& o, SimTime t, Interval::End outcome) {
    if (!o.active) return;
    o.active = false;
    if (o.kind == IntervalKind::kHoard) {
      r.intervals_.push_back(
          {g, o.node, IntervalKind::kHoard, o.begin, t, outcome});
      return;
    }
    // Split the occupation into its overhead prefix and productive suffix.
    const SimTime overhead_end = std::min(t, o.begin + o.overhead);
    if (overhead_end > o.begin)
      r.intervals_.push_back(
          {g, o.node, IntervalKind::kOverhead, o.begin, overhead_end, outcome});
    if (t > overhead_end)
      r.intervals_.push_back(
          {g, o.node, IntervalKind::kRun, overhead_end, t, outcome});
  };

  for (const obs::Event& e : events) {
    switch (e.kind) {
      case obs::EventKind::kTaskDispatch: {
        Open& o = open[e.task];
        // A hoarded slot going live (kEventFlagHoardActivate) closes its
        // hoard interval first.
        close(e.task, o, e.time, Interval::End::kFinished);
        o = {e.node, IntervalKind::kRun, e.time, whole(e.a), true};
        break;
      }
      case obs::EventKind::kTaskFinish:
        close(e.task, open[e.task], e.time, Interval::End::kFinished);
        r.finish_times_.emplace_back(e.time, e.task);
        break;
      case obs::EventKind::kTaskPreempt:
        close(e.task, open[e.task], e.time, Interval::End::kPreempted);
        break;
      case obs::EventKind::kHoardStart:
        open[e.task] = {e.node, IntervalKind::kHoard, e.time, 0, true};
        break;
      case obs::EventKind::kHoardEvict:
        close(e.task, open[e.task], e.time, Interval::End::kEvicted);
        break;
      case obs::EventKind::kJobComplete:
        r.job_completions_.emplace_back(e.time, e.job);
        break;
      case obs::EventKind::kScheduleRound:
        r.rounds_.push_back({e.time, static_cast<std::size_t>(whole(e.a)),
                             static_cast<std::size_t>(whole(e.b))});
        break;
      case obs::EventKind::kEpoch:
        r.epochs_.push_back(e.time);
        break;
      default:
        break;
    }
  }
  return fold;
}

std::vector<Interval> TimelineRecorder::intervals_for_task(Gid g) const {
  std::vector<Interval> result;
  for (const auto& iv : intervals_)
    if (iv.task == g) result.push_back(iv);
  std::sort(result.begin(), result.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  return result;
}

std::vector<Interval> TimelineRecorder::intervals_on_node(int node) const {
  std::vector<Interval> result;
  for (const auto& iv : intervals_)
    if (iv.node == node) result.push_back(iv);
  std::sort(result.begin(), result.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  return result;
}

SimTime TimelineRecorder::finish_time(Gid g) const {
  for (const auto& [t, task] : finish_times_)
    if (task == g) return t;
  return kNoTime;
}

SimTime TimelineRecorder::first_run_start(Gid g) const {
  SimTime best = kNoTime;
  for (const auto& iv : intervals_) {
    if (iv.task != g || iv.kind == IntervalKind::kHoard) continue;
    if (best == kNoTime || iv.begin < best) best = iv.begin;
  }
  return best;
}

double TimelineRecorder::busy_seconds_on_node(int node) const {
  double total = 0.0;
  for (const auto& iv : intervals_)
    if (iv.node == node && iv.kind != IntervalKind::kHoard)
      total += to_seconds(iv.duration());
  return total;
}

std::string TimelineRecorder::render_gantt(std::size_t node_count,
                                           std::size_t width) const {
  SimTime t_min = kMaxTime, t_max = 0;
  for (const auto& iv : intervals_) {
    t_min = std::min(t_min, iv.begin);
    t_max = std::max(t_max, iv.end);
  }
  if (intervals_.empty() || t_max <= t_min) return "(empty timeline)\n";

  const double span = static_cast<double>(t_max - t_min);
  std::string out;
  char label[32];
  for (std::size_t k = 0; k < node_count; ++k) {
    std::string row(width, '.');
    for (const auto& iv : intervals_) {
      if (iv.node != static_cast<int>(k)) continue;
      const char mark = iv.kind == IntervalKind::kRun      ? '#'
                        : iv.kind == IntervalKind::kOverhead ? '%'
                                                             : '~';
      auto col = [&](SimTime t) {
        return std::min(width - 1,
                        static_cast<std::size_t>(
                            static_cast<double>(t - t_min) / span *
                            static_cast<double>(width)));
      };
      for (std::size_t c = col(iv.begin); c <= col(iv.end - 1); ++c) {
        // Running work wins over overhead, overhead over hoarding, so the
        // most informative mark survives bucket collisions.
        if (row[c] == '.' || (row[c] == '~' && mark != '~') ||
            (row[c] == '%' && mark == '#'))
          row[c] = mark;
      }
    }
    std::snprintf(label, sizeof label, "node %2zu |", k);
    out += label;
    out += row;
    out += "|\n";
  }
  std::snprintf(label, sizeof label, "%8s", "");
  out += label;
  out += format_time(t_min) + " .. " + format_time(t_max) + "\n";
  return out;
}

void TimelineRecorder::write_csv(std::ostream& out) const {
  out << "task,node,kind,begin_us,end_us,outcome\n";
  for (const auto& iv : intervals_)
    out << iv.task << ',' << iv.node << ',' << to_string(iv.kind) << ','
        << iv.begin << ',' << iv.end << ',' << to_string(iv.outcome) << '\n';
}

}  // namespace dsp

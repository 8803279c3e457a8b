#include "obs/events.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "util/env.h"
#include "util/log.h"

namespace dsp::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kRunInfo: return "run_info";
    case EventKind::kJobArrival: return "job_arrival";
    case EventKind::kJobPlanned: return "job_planned";
    case EventKind::kJobComplete: return "job_complete";
    case EventKind::kTaskEnqueue: return "task_enqueue";
    case EventKind::kTaskDispatch: return "task_dispatch";
    case EventKind::kTaskFinish: return "task_finish";
    case EventKind::kTaskPreempt: return "task_preempt";
    case EventKind::kTaskMigrate: return "task_migrate";
    case EventKind::kHoardStart: return "hoard_start";
    case EventKind::kHoardEvict: return "hoard_evict";
    case EventKind::kPreemptDecision: return "preempt_decision";
    case EventKind::kNodeDown: return "node_down";
    case EventKind::kNodeUp: return "node_up";
    case EventKind::kNodeRate: return "node_rate";
    case EventKind::kEpoch: return "epoch";
    case EventKind::kScheduleRound: return "schedule_round";
    case EventKind::kDeltaAdapt: return "delta_adapt";
  }
  return "?";
}

bool parse_event_kind(std::string_view s, EventKind& out) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto k = static_cast<EventKind>(i);
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

namespace {

/// Ids serialize as -1 when unset so the JSONL stays integer-typed.
long long id_or_minus1(std::uint32_t v) {
  return v == ~std::uint32_t{0} ? -1 : static_cast<long long>(v);
}

}  // namespace

void EventLog::append_jsonl(const Event& e, std::string& out) {
  // One line lands in a stack buffer first, then appends to `out` in a
  // single call: at ~10^5-10^7 events per run the dozen per-field
  // std::string grow checks are measurable against the <5% end-to-end
  // overhead budget. Worst case per line is ~290 bytes (12 field names,
  // two 24-char integers, two 32-char doubles).
  char buf[384];
  char* p = buf;
  const auto lit = [&p](std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  };
  const auto num = [&p](long long v) {
    p = std::to_chars(p, p + 24, v).ptr;
  };
  const auto dbl = [&](double v) {
    if (!std::isfinite(v)) {
      lit("null");  // matches write_json_number's convention
      return;
    }
    if (v >= -9.0e15 && v <= 9.0e15) {  // in long long range: cast defined
      const auto i = static_cast<long long>(v);
      if (static_cast<double>(i) == v) {
        num(i);  // integral payloads (counts, ordinals) print as integers
        return;
      }
    }
    p = std::to_chars(p, p + 32, v).ptr;  // shortest round-trip
  };
  lit("{\"t\":");
  num(static_cast<long long>(e.time));
  lit(",\"seq\":");
  num(static_cast<long long>(e.seq));
  lit(",\"epoch\":");
  num(static_cast<long long>(e.epoch));
  lit(",\"kind\":\"");
  lit(to_string(e.kind));  // fixed [a-z_] identifiers: nothing to escape
  lit("\",\"flags\":");
  num(static_cast<long long>(e.flags));
  lit(",\"job\":");
  num(id_or_minus1(e.job));
  lit(",\"task\":");
  num(id_or_minus1(e.task));
  lit(",\"task2\":");
  num(id_or_minus1(e.task2));
  lit(",\"node\":");
  num(e.node);
  lit(",\"node2\":");
  num(e.node2);
  lit(",\"a\":");
  dbl(e.a);
  lit(",\"b\":");
  dbl(e.b);
  lit("}\n");
  out.append(buf, static_cast<std::size_t>(p - buf));
}

EventLog::EventLog(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
  MutexLock lock(mu_);
  ring_.resize(capacity_);
  sample_every_.fill(1);
  seen_.fill(0);
}

EventLog::~EventLog() { close_sink(); }

void EventLog::flush_sink_locked() {
  if (sink_ != nullptr && !line_buf_.empty())
    std::fwrite(line_buf_.data(), 1, line_buf_.size(), sink_);
  line_buf_.clear();
}

bool EventLog::open_sink(const std::string& path) {
  MutexLock lock(mu_);
  if (sink_ != nullptr) {
    flush_sink_locked();
    std::fclose(sink_);
    sink_ = nullptr;
  }
  line_buf_.clear();
  sink_ = std::fopen(path.c_str(), "wb");
  if (sink_ == nullptr) {
    DSP_ERROR("event log: cannot open sink %s", path.c_str());
    return false;
  }
  return true;
}

void EventLog::close_sink() {
  MutexLock lock(mu_);
  if (sink_ != nullptr) {
    flush_sink_locked();
    std::fclose(sink_);
    sink_ = nullptr;
  }
}

void EventLog::set_sample_every(EventKind kind, std::uint32_t n) {
  MutexLock lock(mu_);
  sample_every_[static_cast<std::size_t>(kind)] = n == 0 ? 1 : n;
}

bool EventLog::configure_sampling(std::string_view spec, std::string* error) {
  std::array<std::pair<EventKind, std::uint32_t>, kEventKindCount> parsed;
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim surrounding spaces.
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    EventKind kind;
    if (eq == std::string_view::npos ||
        !parse_event_kind(item.substr(0, eq), kind)) {
      if (error) *error = "unknown event kind in \"" + std::string(item) + "\"";
      return false;
    }
    const std::string num(item.substr(eq + 1));
    char* end = nullptr;
    const unsigned long n = std::strtoul(num.c_str(), &end, 10);
    if (num.empty() || end == nullptr || *end != '\0' || n == 0) {
      if (error) *error = "bad sample count in \"" + std::string(item) + "\"";
      return false;
    }
    if (count < parsed.size())
      parsed[count++] = {kind, static_cast<std::uint32_t>(n)};
  }
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < count; ++i)
    sample_every_[static_cast<std::size_t>(parsed[i].first)] =
        parsed[i].second;
  return true;
}

void EventLog::emit(const Event& input) {
  MutexLock lock(mu_);
  const auto ki = static_cast<std::size_t>(input.kind);
  if (ki < kEventKindCount) {
    const std::uint32_t every = sample_every_[ki];
    if (every > 1 && seen_[ki]++ % every != 0) {
      ++sampled_out_;
      return;
    }
    if (every <= 1) ++seen_[ki];
  }
  Event e = input;
  e.seq = accepted_;
  ring_[static_cast<std::size_t>(accepted_ % capacity_)] = e;
  ++accepted_;
  if (sink_ != nullptr) {
    // Lines accumulate in line_buf_ and flush in ~32 KiB batches: one
    // fwrite per few hundred events instead of one per event keeps the
    // recorder-on overhead of an end-to-end run in the low percent.
    append_jsonl(e, line_buf_);
    if (line_buf_.size() >= kSinkFlushBytes) flush_sink_locked();
  }
}

std::vector<Event> EventLog::snapshot() const {
  MutexLock lock(mu_);
  const std::uint64_t n =
      std::min<std::uint64_t>(accepted_, static_cast<std::uint64_t>(capacity_));
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = accepted_ - n; i < accepted_; ++i)
    out.push_back(ring_[static_cast<std::size_t>(i % capacity_)]);
  return out;
}

void EventLog::write_jsonl(std::ostream& out) const {
  // Snapshot first: no stream I/O happens under the emit mutex.
  std::string buf;
  for (const Event& e : snapshot()) {
    buf.clear();
    append_jsonl(e, buf);
    out << buf;
  }
}

std::uint64_t EventLog::accepted() const {
  MutexLock lock(mu_);
  return accepted_;
}

std::uint64_t EventLog::sampled_out() const {
  MutexLock lock(mu_);
  return sampled_out_;
}

std::unique_ptr<EventLog> EventLog::from_env() {
  const std::string path = env_string("DSP_EVENT_LOG", "");
  if (path.empty()) return nullptr;
  const auto ring = static_cast<std::size_t>(env_int_min(
      "DSP_EVENT_RING", static_cast<std::int64_t>(kDefaultCapacity), 1));
  auto log = std::make_unique<EventLog>(ring);
  const std::string spec = env_string("DSP_EVENT_SAMPLE", "");
  std::string error;
  if (!spec.empty() && !log->configure_sampling(spec, &error))
    DSP_WARN("DSP_EVENT_SAMPLE ignored: %s", error.c_str());
  if (!log->open_sink(path)) return nullptr;
  return log;
}

namespace {

/// Non-finite payloads serialize as null; `null_as` is what null reads as.
bool event_number(const json::Value& rec, const char* key, std::size_t line,
                  double& out, std::string& error, double null_as = 0.0) {
  const json::Value* v = rec.find(key);
  if (v != nullptr && v->kind == json::Value::Kind::kNull) {
    out = null_as;
    return true;
  }
  if (v == nullptr || !v->is_number()) {
    error = "line " + std::to_string(line) + ": missing or non-numeric \"" +
            key + "\"";
    return false;
  }
  out = v->number;
  return true;
}

/// Reads integral field `key` into `out`. Null (non-finite), fractions
/// and values `T` cannot hold are refused (json::fits_integer). With
/// `unset_is_minus1` (the id fields), -1 reads as the ~0 "n/a" sentinel
/// the writer serializes that way.
template <typename T>
bool event_int(const json::Value& rec, const char* key, std::size_t line,
               T& out, std::string& error, bool unset_is_minus1 = false) {
  double v = 0.0;
  if (!event_number(rec, key, line, v, error, std::nan(""))) return false;
  if (unset_is_minus1 && v == -1.0) {
    out = static_cast<T>(~T{0});
    return true;
  }
  if (!json::fits_integer<T>(v)) {
    error = "line " + std::to_string(line) + ": \"" + key +
            "\" out of range";
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

}  // namespace

EventParseResult read_event_log(std::istream& in) {
  EventParseResult result;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value rec;
    std::string parse_error;
    if (!json::parse(line, rec, &parse_error)) {
      result.error =
          "line " + std::to_string(line_no) + ": invalid JSON: " + parse_error;
      return result;
    }
    const json::Value* kind = rec.find("kind");
    Event e;
    if (kind == nullptr || !kind->is_string() ||
        !parse_event_kind(kind->string, e.kind)) {
      result.error =
          "line " + std::to_string(line_no) + ": missing or unknown \"kind\"";
      return result;
    }
    if (!event_int(rec, "t", line_no, e.time, result.error) ||
        !event_int(rec, "seq", line_no, e.seq, result.error) ||
        !event_int(rec, "epoch", line_no, e.epoch, result.error) ||
        !event_int(rec, "flags", line_no, e.flags, result.error) ||
        !event_int(rec, "job", line_no, e.job, result.error, true) ||
        !event_int(rec, "task", line_no, e.task, result.error, true) ||
        !event_int(rec, "task2", line_no, e.task2, result.error, true) ||
        !event_int(rec, "node", line_no, e.node, result.error) ||
        !event_int(rec, "node2", line_no, e.node2, result.error) ||
        !event_number(rec, "a", line_no, e.a, result.error) ||
        !event_number(rec, "b", line_no, e.b, result.error))
      return result;
    result.events.push_back(e);
  }
  return result;
}

EventParseResult read_event_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    EventParseResult result;
    result.error = "cannot open file: " + path;
    return result;
  }
  return read_event_log(in);
}

}  // namespace dsp::obs

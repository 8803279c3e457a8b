#include "sim/ready_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dsp {
namespace {

bool before(SimTime a_start, Gid a, SimTime b_start, Gid b) {
  return a_start != b_start ? a_start < b_start : a < b;
}

/// Lowers each resource of `m` to `d`'s where `d`'s is smaller.
void lower_to(Resources& m, const Resources& d) {
  m.cpu = std::min(m.cpu, d.cpu);
  m.mem = std::min(m.mem, d.mem);
  m.disk = std::min(m.disk, d.disk);
  m.bw = std::min(m.bw, d.bw);
}

}  // namespace

std::size_t ReadyQueue::chunk_for(SimTime start, Gid g) const {
  const auto it = std::partition_point(
      chunks_.begin(), chunks_.end(), [start, g](const Chunk& c) {
        const Item& last = c.items.back();
        return before(last.start, last.g, start, g);
      });
  return static_cast<std::size_t>(it - chunks_.begin());
}

void ReadyQueue::refresh_min(Chunk& c) {
  c.min = c.items.front().demand;
  for (const Item& item : c.items) lower_to(c.min, item.demand);
}

void ReadyQueue::insert(SimTime planned_start, Gid g,
                        const Resources& demand) {
  std::size_t k = chunk_for(planned_start, g);
  if (k == chunks_.size()) {
    // After every queued task: the last chunk grows, or the first starts.
    if (chunks_.empty()) chunks_.push_back(new_chunk());
    k = chunks_.size() - 1;
  }
  Chunk& c = chunks_[k];
  const auto at = std::partition_point(
      c.items.begin(), c.items.end(), [planned_start, g](const Item& item) {
        return before(item.start, item.g, planned_start, g);
      });
  const bool appended = k + 1 == chunks_.size() && at == c.items.end();
  c.items.insert(at, Item{planned_start, g, demand});
  if (c.items.size() == 1)
    c.min = demand;
  else
    lower_to(c.min, demand);
  ++size_;
  if (c.items.size() <= kMaxChunk) return;
  // Split the full chunk. An append, the common case (new work plans later
  // than queued work), leaves it full and starts the next chunk with the
  // new task; an insert in the middle splits it in halves.
  Chunk upper = new_chunk();
  const auto mid = c.items.begin() +
                   static_cast<std::ptrdiff_t>(appended ? kMaxChunk
                                                        : kMaxChunk / 2);
  upper.items.assign(mid, c.items.end());
  c.items.erase(mid, c.items.end());
  refresh_min(c);
  refresh_min(upper);
  chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                 std::move(upper));
}

void ReadyQueue::erase(SimTime planned_start, Gid g) {
  const std::size_t k = chunk_for(planned_start, g);
  assert(k < chunks_.size());
  Chunk& c = chunks_[k];
  const auto at = std::partition_point(
      c.items.begin(), c.items.end(), [planned_start, g](const Item& item) {
        return before(item.start, item.g, planned_start, g);
      });
  assert(at != c.items.end() && at->g == g);
  c.items.erase(at);
  --size_;
  if (c.items.empty()) {
    spare_ = std::move(c);  // a short queue empties and refills often
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(k));
    return;
  }
  // Dispatch drains chunks near the head: fold a light chunk's successor
  // into it, so mostly empty chunks neither hold memory nor slow a search.
  if (k + 1 < chunks_.size() &&
      c.items.size() + chunks_[k + 1].items.size() <= kMaxChunk) {
    const std::vector<Item>& next = chunks_[k + 1].items;
    c.items.insert(c.items.end(), next.begin(), next.end());
    spare_ = std::move(chunks_[k + 1]);
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(k) + 1);
  }
  refresh_min(c);
}

ReadyQueue::Chunk ReadyQueue::new_chunk() {
  // A chunk never grows past kMaxChunk + 1 items (it splits), so one
  // allocation of that size serves it for life, and the last chunk to
  // go serves the next one.
  Chunk c = std::move(spare_);
  spare_ = Chunk{};
  c.items.clear();
  c.items.reserve(kMaxChunk + 1);
  return c;
}

void ReadyQueue::copy_to(std::vector<Gid>& out) const {
  out.clear();
  for (const Chunk& c : chunks_)
    for (const Item& item : c.items) out.push_back(item.g);
}

}  // namespace dsp

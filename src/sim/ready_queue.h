// ReadyQueue: the ready tasks of one node's waiting queue, in dispatch
// order.
//
// Part of ClusterState (DESIGN.md §16). A dependency-aware dispatcher only
// launches ready tasks that fit the node's free resources, first in
// (planned_start, gid) order. On a saturated node the head of that order
// fills with tasks too large for what a single free slot offers, while
// smaller tasks behind them backfill, so a flat scan would walk past all
// of them at every dispatch. The queue is therefore kept as short sorted
// runs (chunks), each holding its tasks' keys and demands inline together
// with its smallest demand per resource: a chunk whose smallest demand in
// some resource exceeds the free amount holds no fitting task, and the
// search skips it whole.
#pragma once

#include <cstddef>
#include <vector>

#include "dag/task.h"
#include "sim/types.h"
#include "util/time.h"

namespace dsp {

class ReadyQueue {
 public:
  bool empty() const { return chunks_.empty(); }
  std::size_t size() const { return size_; }

  /// Inserts `g` at its (planned_start, gid) position.
  void insert(SimTime planned_start, Gid g, const Resources& demand);
  /// Removes `g`, which must be queued with this planned_start.
  void erase(SimTime planned_start, Gid g);

  /// Copies the tasks, in order, into `out` (cleared first).
  void copy_to(std::vector<Gid>& out) const;

  /// Calls visit(g), in order, for every task whose demand `avail` fits,
  /// until visit returns true.
  template <class Visit>
  void for_each_fitting(const Resources& avail, Visit&& visit) const {
    for (const Chunk& c : chunks_) {
      if (!avail.fits(c.min)) continue;  // no task of c fits
      for (const Item& item : c.items)
        if (avail.fits(item.demand) && visit(item.g)) return;
    }
  }

 private:
  struct Item {
    SimTime start;
    Gid g;
    Resources demand;
  };
  struct Chunk {
    std::vector<Item> items;  // sorted, never empty
    Resources min;            // per-resource minimum over items
  };
  /// A chunk splits in two when it grows past this.
  static constexpr std::size_t kMaxChunk = 64;

  /// Index of the first chunk whose last task is not before (start, g);
  /// chunks_.size() when every chunk ends before it.
  std::size_t chunk_for(SimTime start, Gid g) const;
  static void refresh_min(Chunk& c);
  /// An empty chunk with room for kMaxChunk + 1 items.
  Chunk new_chunk();

  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
  Chunk spare_;  // the last chunk dropped, kept for its allocation
};

}  // namespace dsp

// WaitingQueue: one node's waiting tasks in (planned_start, gid) order.
//
// Part of ClusterState (DESIGN.md §16). Under a growing backlog a dispatch
// erases near the head of a queue of thousands of unready tasks, while new
// work is inserted near the tail. The queue is therefore stored contiguously
// with free room at both ends, and an insert or erase shifts whichever side
// of its position is shorter. Each task's planned_start is kept beside its
// gid, so the position search reads the queue alone.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/types.h"
#include "util/time.h"

namespace dsp {

class WaitingQueue {
 public:
  const Gid* begin() const { return gids_.data() + head_; }
  const Gid* end() const { return gids_.data() + gids_.size(); }
  std::size_t size() const { return gids_.size() - head_; }
  bool empty() const { return size() == 0; }
  Gid front() const { return gids_[head_]; }

  /// Inserts `g` at its (planned_start, gid) position.
  void insert(SimTime planned_start, Gid g);
  /// Removes `g`, which must be queued with this planned_start.
  void erase(SimTime planned_start, Gid g);

 private:
  /// Index into gids_/starts_ of (start, g): where it is, or belongs.
  std::size_t position(SimTime start, Gid g) const;

  // The queue is gids_[head_..], with starts_[i] the planned_start of
  // gids_[i]; the slots before head_ are free room.
  std::vector<Gid> gids_;
  std::vector<SimTime> starts_;
  std::size_t head_ = 0;
};

}  // namespace dsp

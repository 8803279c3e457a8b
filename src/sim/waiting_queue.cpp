#include "sim/waiting_queue.h"

#include <algorithm>
#include <cassert>

namespace dsp {
namespace {

/// Moves [first, last) of `v` one slot towards the front.
template <class T>
void shift_down(std::vector<T>& v, std::size_t first, std::size_t last) {
  std::move(v.begin() + static_cast<std::ptrdiff_t>(first),
            v.begin() + static_cast<std::ptrdiff_t>(last),
            v.begin() + static_cast<std::ptrdiff_t>(first) - 1);
}

/// Moves [first, last) of `v` one slot towards the back.
template <class T>
void shift_up(std::vector<T>& v, std::size_t first, std::size_t last) {
  std::move_backward(v.begin() + static_cast<std::ptrdiff_t>(first),
                     v.begin() + static_cast<std::ptrdiff_t>(last),
                     v.begin() + static_cast<std::ptrdiff_t>(last) + 1);
}

}  // namespace

std::size_t WaitingQueue::position(SimTime start, Gid g) const {
  std::size_t lo = head_, hi = gids_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (starts_[mid] < start || (starts_[mid] == start && gids_[mid] < g))
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

void WaitingQueue::insert(SimTime planned_start, Gid g) {
  const std::size_t at = position(planned_start, g);
  if (head_ > 0 && at - head_ < gids_.size() - at) {
    // The head side is shorter and there is room before it.
    shift_down(gids_, head_, at);
    shift_down(starts_, head_, at);
    --head_;
    gids_[at - 1] = g;
    starts_[at - 1] = planned_start;
    return;
  }
  gids_.insert(gids_.begin() + static_cast<std::ptrdiff_t>(at), g);
  starts_.insert(starts_.begin() + static_cast<std::ptrdiff_t>(at),
                 planned_start);
}

void WaitingQueue::erase(SimTime planned_start, Gid g) {
  const std::size_t at = position(planned_start, g);
  assert(at < gids_.size() && gids_[at] == g);
  if (at - head_ < gids_.size() - at - 1) {
    // The head side is shorter: close the gap from the front.
    shift_up(gids_, head_, at);
    shift_up(starts_, head_, at);
    ++head_;
    if (head_ > size()) {
      // Keep the free room no larger than the queue.
      gids_.erase(gids_.begin(),
                  gids_.begin() + static_cast<std::ptrdiff_t>(head_));
      starts_.erase(starts_.begin(),
                    starts_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return;
  }
  gids_.erase(gids_.begin() + static_cast<std::ptrdiff_t>(at));
  starts_.erase(starts_.begin() + static_cast<std::ptrdiff_t>(at));
}

}  // namespace dsp

#include "sim/task.h"

namespace ugrpc::sim::detail {

void FramePool::adopt_thread() {
  struct Reaper {
    ~Reaper() { FramePool::release_thread(); }
  };
  // Constructed here, on the thread's first pooled allocation, and
  // destroyed when the thread exits.
  static thread_local Reaper reaper;
  lists_.state = State::kLive;
}

void FramePool::release_thread() noexcept {
  for (std::size_t c = 0; c < kClasses; ++c) {
    while (Block* b = lists_.head[c]) {
      lists_.head[c] = b->next;
      ::operator delete(b, class_bytes(c));
    }
  }
  lists_.state = State::kGone;
}

std::size_t FramePool::cached() noexcept {
  std::size_t n = 0;
  for (const Block* head : lists_.head) {
    for (const Block* b = head; b != nullptr; b = b->next) ++n;
  }
  return n;
}

}  // namespace ugrpc::sim::detail

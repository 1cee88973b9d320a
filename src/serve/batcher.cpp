#include "serve/batcher.hpp"

#include <algorithm>
#include <iterator>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace culda::serve {

CoalescingBatcher::CoalescingBatcher(BatcherOptions options)
    : options_(options) {
  CULDA_CHECK_MSG(options_.max_batch >= 1, "max_batch must be >= 1");
}

bool CoalescingBatcher::Enqueue(Ticket&& ticket) {
  // Dropped tickets die after the lock is released: destroying a callback
  // may close its connection.
  std::vector<Ticket> dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    if (queue_.size() >= options_.max_queue) {
      const auto live = std::stable_partition(
          queue_.begin(), queue_.end(),
          [](const Ticket& t) { return !t.abandoned(); });
      dropped.assign(std::make_move_iterator(live),
                     std::make_move_iterator(queue_.end()));
      queue_.erase(live, queue_.end());
      CULDA_OBS_COUNT("serve.responses.dropped", dropped.size());
      if (queue_.size() >= options_.max_queue) return false;
    }
    queue_.push_back(std::move(ticket));
  }
  // Only the empty→non-empty edge can find the consumer waiting; notifying
  // on every enqueue is simpler and costs no syscall when nobody waits.
  ready_.notify_one();
  return true;
}

std::vector<Ticket> CoalescingBatcher::NextBatch() {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] { return !queue_.empty() || closed_; });
  std::vector<Ticket> batch;
  const size_t n = std::min(queue_.size(), options_.max_batch);
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;  // empty ⇔ closed and drained
}

void CoalescingBatcher::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

size_t CoalescingBatcher::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool CoalescingBatcher::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace culda::serve

#include "serve/batcher.hpp"

#include "util/check.hpp"

namespace culda::serve {

CoalescingBatcher::CoalescingBatcher(BatcherOptions options)
    : options_(options) {
  CULDA_CHECK_MSG(options_.max_batch >= 1, "max_batch must be >= 1");
}

bool CoalescingBatcher::Enqueue(Ticket&& ticket) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || queue_.size() >= options_.max_queue) return false;
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

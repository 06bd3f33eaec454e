#include "serve/batch_queue.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace mcdc::serve {

// --- BatchCompletion ---------------------------------------------------------

void BatchCompletion::complete(const int* labels, std::size_t count) {
  if (settled_.load(std::memory_order_relaxed)) return;  // single writer
  labels_.assign(labels, labels + count);
  publish();
}

void BatchCompletion::fail(std::exception_ptr error) {
  if (settled_.load(std::memory_order_relaxed)) return;
  error_ = std::move(error);
  publish();
}

void BatchCompletion::publish() {
  {
    // The store happens under the mutex so a waiter between its predicate
    // check and its sleep cannot miss the notify.
    std::lock_guard lock(mutex_);
    settled_.store(true, std::memory_order_release);
  }
  settled_cv_.notify_all();
}

int BatchCompletion::wait(std::size_t slot) const {
  if (!settled_.load(std::memory_order_acquire)) {
    std::unique_lock lock(mutex_);
    settled_cv_.wait(lock, [this] {
      return settled_.load(std::memory_order_relaxed);
    });
  }
  if (error_ != nullptr) std::rethrow_exception(error_);
  return labels_[slot];
}

namespace {

std::exception_ptr broken_promise() {
  return std::make_exception_ptr(
      std::future_error(std::future_errc::broken_promise));
}

}  // namespace

// --- Batch -------------------------------------------------------------------

BatchQueue::Batch::~Batch() { abandon(); }

void BatchQueue::Batch::complete(const std::vector<int>& labels) {
  if (completion_ == nullptr) {
    throw std::logic_error("BatchQueue::Batch::complete: no drained batch");
  }
  if (labels.size() != count) {
    throw std::invalid_argument(
        "BatchQueue::Batch::complete: one label per request required");
  }
  completion_->complete(labels.data(), count);
}

void BatchQueue::Batch::fail(std::exception_ptr error) {
  if (completion_ == nullptr) {
    throw std::logic_error("BatchQueue::Batch::fail: no drained batch");
  }
  completion_->fail(std::move(error));
}

void BatchQueue::Batch::abandon() {
  if (completion_ != nullptr && !completion_->settled()) {
    completion_->fail(broken_promise());
  }
  completion_.reset();
}

// --- BatchQueue --------------------------------------------------------------

BatchQueue::BatchQueue(std::size_t row_width, BatchQueueConfig config)
    : row_width_(row_width), config_(config) {
  if (row_width_ == 0) {
    throw std::invalid_argument("BatchQueue: row_width must be > 0");
  }
  if (config_.max_batch == 0 || config_.max_pending == 0) {
    throw std::invalid_argument(
        "BatchQueue: max_batch and max_pending must be > 0");
  }
}

BatchQueue::~BatchQueue() {
  for (const auto& completion : completions_) {
    completion->fail(broken_promise());
  }
}

std::size_t BatchQueue::pending_locked() const {
  return enqueued_.size() - head_;
}

Ticket BatchQueue::enqueue(const data::Value* row) {
  const Timer submitted;  // the clock is read before the lock is taken
  std::unique_lock lock(mutex_);
  producer_cv_.wait(lock, [this] {
    return closed_ || pending_locked() < config_.max_pending;
  });
  if (closed_) throw std::runtime_error("BatchQueue: submit after close");

  const std::size_t position = pending_locked();
  const std::size_t slot = position % config_.max_batch;
  if (slot == 0) completions_.push_back(std::make_shared<BatchCompletion>());
  try {
    rows_.insert(rows_.end(), row, row + row_width_);
    enqueued_.push_back(submitted);
  } catch (...) {
    // Roll back so the staging bank, stamps and batches stay aligned.
    rows_.resize(enqueued_.size() * row_width_);
    if (slot == 0) completions_.pop_back();
    throw;
  }
  Ticket ticket(completions_.back(), slot);
  lock.unlock();
  // Wake the consumer once per batch: when it may be waiting for work, or
  // lingering for a batch that is now full.
  if (position == 0 || position + 1 == config_.max_batch) {
    consumer_cv_.notify_one();
  }
  return ticket;
}

std::future<int> BatchQueue::submit(const data::Value* row) {
  return std::async(std::launch::deferred,
                    [ticket = enqueue(row)] { return ticket.wait(); });
}

bool BatchQueue::next_batch(Batch& out) {
  out.abandon();  // a previous batch left unanswered fails its requests
  std::unique_lock lock(mutex_);
  // A backlog on entry means the requests arrived while the consumer was
  // busy with its last batch: it is behind the load, and waiting a little
  // for a full batch buys occupancy. Otherwise it blocks for the first
  // request and drains at once — nobody else is waiting for it.
  const bool backlog = pending_locked() > 0;
  if (!backlog) {
    consumer_idle_ = true;
    consumer_cv_.wait(lock, [this] { return closed_ || pending_locked() > 0; });
    consumer_idle_ = false;
    if (pending_locked() == 0) return false;  // closed and drained
  }

  // Linger for the batch to fill, until the oldest pending request has
  // waited linger_us since its submit. A closed queue and a full batch
  // both cut the wait short.
  out.lingered = false;
  if (backlog && config_.linger_us > 0.0 && !closed_ &&
      pending_locked() < config_.max_batch) {
    // mcdc-lint: allow(D1) the linger deadline shapes batch occupancy and
    // latency only; every row's label is computed by the same frozen sweep
    // whichever batch it lands in.
    const auto left = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::micro>(config_.linger_us) -
        std::chrono::duration<double>(enqueued_[head_].elapsed_seconds()));
    if (left > left.zero()) {
      consumer_cv_.wait_for(lock, left, [this] {
        return closed_ || pending_locked() >= config_.max_batch;
      });
      out.lingered = true;
    }
  }

  // Drain the front batch from the head cursor — O(batch), however deep
  // the backlog. The buffers compact when fully drained (the common case)
  // or once the dead prefix exceeds the backpressure bound (amortised O(1)
  // per request), so the staging bank cannot grow without bound under
  // sustained load.
  const std::size_t take = std::min(pending_locked(), config_.max_batch);
  const auto head = static_cast<std::ptrdiff_t>(head_);
  const auto tail = static_cast<std::ptrdiff_t>(head_ + take);
  const auto width = static_cast<std::ptrdiff_t>(row_width_);
  out.count = take;
  out.rows.assign(rows_.begin() + head * width, rows_.begin() + tail * width);
  out.enqueued.assign(enqueued_.begin() + head, enqueued_.begin() + tail);
  out.completion_ = std::move(completions_.front());
  completions_.pop_front();
  head_ += take;
  if (head_ == enqueued_.size()) {
    rows_.clear();
    enqueued_.clear();
    head_ = 0;
  } else if (head_ >= config_.max_pending) {
    rows_.erase(rows_.begin(), rows_.begin() + static_cast<std::ptrdiff_t>(
                                                   head_ * row_width_));
    enqueued_.erase(enqueued_.begin(),
                    enqueued_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  lock.unlock();
  producer_cv_.notify_all();
  return true;
}

void BatchQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  producer_cv_.notify_all();
  consumer_cv_.notify_all();
}

bool BatchQueue::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

bool BatchQueue::consumer_idle() const {
  std::lock_guard lock(mutex_);
  return consumer_idle_;
}

std::size_t BatchQueue::pending() const {
  std::lock_guard lock(mutex_);
  return pending_locked();
}

}  // namespace mcdc::serve

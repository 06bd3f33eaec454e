// BatchQueue — coalesces single-row predict requests into batches.
//
// Producers (request handler threads) call submit() with one row each and
// redeem the returned future; a single consumer (the ModelServer
// dispatcher) calls next_batch() in a loop, receiving up to max_batch
// requests at a time. Coalescing is what turns k*d-per-row pointer traffic
// into one frozen score_all sweep per batch (Model::predict_rows), and it
// amortises the queue synchronisation: producers pay one lock per request,
// the consumer pays one lock per *batch*.
//
// Completion is batch-granular too. Every batch owns one BatchCompletion:
// a block of label slots, shared by reference count between the consumer
// and the tickets of its requests. The consumer writes the batch's labels
// into the slots with plain stores and publishes them with one notify
// (Batch::complete), or fails every request of the batch with one error
// (Batch::fail) — a failed sweep publishes no partial labels. A request
// waits on its own slot in the thread that redeems it. Why not one
// std::promise per request: libstdc++ completes a promise through
// std::call_once, which ends in a futex-wake syscall, so the consumer
// would pay one syscall per request in series. Measured in a closed loop
// on a 4-vCPU host (GCC 12.2, k = 32, d = 10), that cost the consumer
// 0.62 us per row, against 0.10 us in predict_rows, 0.06 us recording
// stats and 0.19 us waiting.
//
// submit() still returns std::future<int>: a std::launch::deferred adaptor
// whose get() waits on the slot. The one call_once the standard library
// demands per future is then paid by the redeeming thread, in parallel
// across producers. A deferred future does not report readiness:
// wait_for() and wait_until() on it return std::future_status::deferred
// at once, whether or not the batch has been answered; only get() and
// wait() block. enqueue() hands out the bare Ticket for callers that redeem
// at once (ModelServer::predict(row)) and need no future at all.
//
// The queue stores a copy of every submitted row (producers must not keep
// the buffer alive) in one flat row-major staging bank drained through a
// head cursor, so a drain costs O(batch) regardless of backlog depth (the
// bank compacts when empty, or amortised once the dead prefix passes the
// backpressure bound).
//
// The consumer is woken once per batch, not once per request: a submit
// notifies it only when the queue goes from empty to non-empty (the
// consumer may be waiting for work) or when a full max_batch becomes
// pending (the consumer may be lingering for one).
//
// Batching adapts to load. An idle consumer (one that blocked in
// next_batch() for the first request) drains what is pending the moment
// it wakes: nobody else is waiting, so a linger would only add latency.
// A consumer that comes back from its last batch to requests already
// pending is behind the load, and lingers for the batch to fill — until
// the oldest pending request has waited linger_us since its submit, so
// linger_us bounds each request's time in the queue rather than
// restarting at every drain. Against lingering on every partial batch,
// measured on a 4-vCPU host (GCC 12.2, k = 32, d = 10, a 3x128 closed
// loop plus a 200k req/s open loop, medians of 10 runs), this took the
// served p50 from 39.0 us (the linger paid on almost every batch) to
// 9.25 us, and throughput from 4.02M to 5.24M rows/s: a consumer that
// lingers on a partial batch whose producers are all blocked on it
// waits for nothing.
//
// Backpressure: submit() blocks while max_pending requests are already
// queued — a bounded queue keeps a slow consumer from converting overload
// into unbounded memory growth. close() wakes everyone; a submit after
// close throws std::runtime_error, and next_batch() returns false once the
// queue is closed *and* drained (requests accepted before close are still
// served). A batch dropped unanswered, or requests still queued when the
// queue is destroyed, fail with std::future_error(broken_promise), so no
// waiter can block forever.
//
// Thread-safety: any number of producers; exactly one consumer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/timer.h"
#include "data/dataset.h"

namespace mcdc::serve {

struct BatchQueueConfig {
  // Rows per drained batch; 1 degenerates to an unbatched request loop
  // (the bench_serve baseline).
  std::size_t max_batch = 256;
  // Bound on queued requests before submit() blocks.
  std::size_t max_pending = 4096;
  // Bound on a request's wait in the queue for its batch to fill, in
  // microseconds, counted from its submit. Only a consumer that finds a
  // backlog lingers; an idle one drains at once. 0 = always dispatch
  // whatever is there immediately.
  double linger_us = 50.0;
};

// The answers of one batch: label slots written once by the consumer and
// read by every waiter after one publication.
class BatchCompletion {
 public:
  // Copies labels[0..count) into the slots and wakes every waiter. Both
  // complete() and fail() settle the batch; only the first call counts.
  void complete(const int* labels, std::size_t count);
  // Every waiter of the batch rethrows `error`.
  void fail(std::exception_ptr error);
  bool settled() const { return settled_.load(std::memory_order_acquire); }
  // Blocks until the batch is settled; returns slot's label or rethrows
  // the batch's error.
  int wait(std::size_t slot) const;

 private:
  void publish();

  std::vector<int> labels_;
  std::exception_ptr error_;
  std::atomic<bool> settled_{false};
  mutable std::mutex mutex_;
  mutable std::condition_variable settled_cv_;
};

// One queued request's claim on its batch's answer. Holding a ticket keeps
// the batch's slots alive, so it may be redeemed after the queue (and the
// server around it) is gone.
class Ticket {
 public:
  Ticket(std::shared_ptr<const BatchCompletion> batch, std::size_t slot)
      : batch_(std::move(batch)), slot_(slot) {}
  int wait() const { return batch_->wait(slot_); }

 private:
  std::shared_ptr<const BatchCompletion> batch_;
  std::size_t slot_;
};

class BatchQueue {
 public:
  // row_width = values per row (the served model's feature count).
  explicit BatchQueue(std::size_t row_width, BatchQueueConfig config = {});
  // Fails any request still queued (broken_promise).
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  std::size_t row_width() const { return row_width_; }

  // Copies row[0..row_width) into the staging bank and returns the
  // request's ticket. Blocks while the queue is full; throws
  // std::runtime_error when the queue is closed.
  Ticket enqueue(const data::Value* row);
  // enqueue() behind a std::launch::deferred future whose get() redeems
  // the ticket (see the header comment for wait_for/wait_until).
  std::future<int> submit(const data::Value* row);

  // One drained batch: `count` rows packed row-major in `rows` and each
  // request's submit-time clock for latency accounting. Vectors are reused
  // across drains (capacity stays warm). The consumer answers it with
  // complete() or fail(); a batch replaced or destroyed unanswered fails
  // its requests with broken_promise.
  struct Batch {
    std::vector<data::Value> rows;
    std::vector<Timer> enqueued;
    std::size_t count = 0;
    bool lingered = false;  // the drain waited on the linger

    Batch() = default;
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    ~Batch();

    // labels[i] answers request i; labels.size() must equal count.
    void complete(const std::vector<int>& labels);
    void fail(std::exception_ptr error);

   private:
    friend class BatchQueue;
    void abandon();
    std::shared_ptr<BatchCompletion> completion_;
  };

  // Blocks until a request is pending, then moves up to max_batch
  // requests into `out`. If requests were already pending on entry, it
  // first lingers for a full batch until the oldest pending request is
  // linger_us old; if it had to block for the first one, it drains at
  // once. Returns false when the queue is closed and fully drained.
  // Single consumer only.
  bool next_batch(Batch& out);

  // True while the consumer is blocked in next_batch() on an empty queue:
  // the next request will be drained without a linger.
  bool consumer_idle() const;

  // Rejects future submits and wakes the consumer to drain what remains.
  void close();
  bool closed() const;

  std::size_t pending() const;

 private:
  std::size_t pending_locked() const;  // requires mutex_ held

  const std::size_t row_width_;
  const BatchQueueConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable producer_cv_;  // space available
  std::condition_variable consumer_cv_;  // work available / closed
  std::vector<data::Value> rows_;        // staged rows, row-major
  std::vector<Timer> enqueued_;
  // One completion per pending batch, oldest first. Every batch but the
  // newest holds exactly max_batch requests, so request p (counted from
  // the head) answers through completions_[p / max_batch], slot
  // p % max_batch, and a drain takes exactly the front batch.
  std::deque<std::shared_ptr<BatchCompletion>> completions_;
  std::size_t head_ = 0;  // first undrained request in the staging bank
  bool consumer_idle_ = false;
  bool closed_ = false;
};

}  // namespace mcdc::serve

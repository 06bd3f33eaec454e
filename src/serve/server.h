// ModelServer — concurrent serving front end for a fitted api::Model.
//
// The paper's frozen-quotient scoring (ProfileSet::freeze, Eq. 14) makes a
// fitted model a read-only object, which is exactly what a snapshot server
// wants: the server holds one immutable std::shared_ptr<const Model> and
// hands it out lock-free to any number of predictor threads. Publishing a
// new model — a refit, a StreamingMgcpl drain rebuilt into a Model, or a
// Model::from_json hot-reload — is a single atomic pointer swap: in-flight
// batches keep scoring against the snapshot they loaded (their shared_ptr
// keeps it alive), new batches see the new model, and nobody stalls.
//
// Two predict paths:
//   - predict(DatasetView) scores a whole dataset against ONE snapshot
//     (never a torn sweep across a swap) — the bulk path.
//   - submit()/predict(row) enqueue single rows into a BatchQueue; a
//     dispatcher thread coalesces them (up to max_batch) and answers each
//     batch with one frozen Model::predict_rows sweep (run inline for a
//     small model's batch, fanned over the shared pool for a large one).
//     Rows must already be in the model's encoding (Model::encoding_map
//     translates foreign sources); out-of-domain codes score as missing,
//     exactly as predict_row documents. An idle dispatcher answers a
//     request at once; one that finds a backlog after its last batch
//     lingers for a fuller batch, no longer than until the oldest pending
//     request is linger_us old (serve/batch_queue.h).
//
// Completion is per batch (serve/batch_queue.h): the dispatcher records
// the batch's stats, copies its labels into the batch's slots and
// publishes them with one notify; each request waits on its own slot in
// the thread that redeems it. predict(row) waits on the slot directly.
// submit() returns a std::launch::deferred future: get() waits as
// predict(row) does, and wait_for()/wait_until() return
// std::future_status::deferred without waiting. One std::promise per
// request would cost the dispatcher a futex-wake syscall (inside
// std::call_once) per request: 0.62 us of its 0.97 us per row in a closed
// loop on a 4-vCPU host (k = 32, d = 10), against 0.10 us in predict_rows.
// Labels survive the server: a future redeemed after the server is
// destroyed still returns its label, because stop() answers every
// accepted request before the dispatcher exits.
//
// Contract mirrors StreamingMgcpl::classify: with no published snapshot
// every request answers -1 — there is nothing to assign to, and pretending
// "cluster 0" would alias a future model's first cluster. A swap to a model
// with a different feature count than the server's row width throws
// std::invalid_argument before anything is published.
//
// stats() returns api::ServeEvidence — request/batch/swap counters, batch
// occupancy, throughput, and p50/p99 submit-to-label latency — ready to
// drop into a RunReport ("serve" object in the JSON).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/json.h"
#include "api/model.h"
#include "api/report.h"
#include "common/timer.h"
#include "serve/batch_queue.h"

// Snapshot publication strategy. Under ThreadSanitizer the mutex path is
// used even when the library has std::atomic<std::shared_ptr>: libstdc++'s
// _Sp_atomic guards its pointer with a spinlock whose load() path unlocks
// with memory_order_relaxed, so TSan cannot establish the happens-before
// edge and reports the internal plain accesses — drowning out races in
// *this* code. The mutex guards only the pointer copy (nanoseconds) and is
// semantically identical. (MCDC_SERVE_ATOMIC_SNAPSHOT is consumed by
// server.cpp too, so it survives this header; the TSan probe does not.)
#if defined(__SANITIZE_THREAD__)  // GCC
#define MCDC_SERVE_TSAN 1
#elif defined(__has_feature)  // Clang spells it __has_feature
#if __has_feature(thread_sanitizer)
#define MCDC_SERVE_TSAN 1
#endif
#endif
#if defined(__cpp_lib_atomic_shared_ptr) && !defined(MCDC_SERVE_TSAN)
#define MCDC_SERVE_ATOMIC_SNAPSHOT 1
#endif
#undef MCDC_SERVE_TSAN

namespace mcdc::serve {

struct ServeConfig {
  BatchQueueConfig queue;
  // Feature count served when constructed without a model (a server that
  // starts empty and gets its first snapshot via swap()); ignored when a
  // model is given. 0 with no model = single-row path disabled until
  // construction with a width.
  std::size_t row_width = 0;
  // Submit-to-label latency samples kept for the percentiles (a ring: the
  // most recent samples win).
  std::size_t latency_capacity = 1 << 14;
};

class ModelServer {
 public:
  explicit ModelServer(std::shared_ptr<const api::Model> model = nullptr,
                       ServeConfig config = {});
  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  // The currently published snapshot (nullptr while empty). Lock-free;
  // the returned shared_ptr keeps the model alive however long the caller
  // scores against it.
  std::shared_ptr<const api::Model> snapshot() const;

  // Atomically publishes `next` (nullptr unpublishes) and returns the
  // previous snapshot. In-flight batches finish on the model they loaded.
  // Throws std::invalid_argument when `next`'s feature count does not
  // match the server's row width.
  std::shared_ptr<const api::Model> swap(
      std::shared_ptr<const api::Model> next);

  // Hot-reload: Model::from_json + swap. Throws std::runtime_error on
  // malformed model JSON (nothing is published then).
  std::shared_ptr<const api::Model> swap_json(const api::Json& model_json);

  // Single-row request through the batching queue; blocks until the
  // dispatcher answers. -1 when no snapshot is published. The row must
  // hold row_width() values in the model's encoding; the queue copies it.
  // Throws std::logic_error when the server was built without a row width.
  int predict(const data::Value* row);
  // The asynchronous form: enqueue now, redeem the label later with get()
  // (a deferred future: wait_for/wait_until report future_status::deferred).
  std::future<int> submit(const data::Value* row);

  // Whole-dataset predict against one snapshot load (dictionary re-coding
  // included, as Model::predict). All -1 while the server is empty.
  std::vector<int> predict(const data::DatasetView& ds) const;

  std::size_t row_width() const { return row_width_; }

  // True while the dispatcher is blocked waiting for a first request, so
  // the next single-row request is answered without a linger. False for a
  // server without a row width.
  bool idle() const;

  api::ServeEvidence stats() const;

  // The retained submit-to-label latency ring (microseconds, unordered) —
  // for consumers that merge samples across servers before taking
  // percentiles (serve::ServingCluster), where averaging per-shard
  // percentiles would be wrong.
  std::vector<double> latency_samples() const;

  // Rejects new submits, drains pending requests and joins the
  // dispatcher. Idempotent; the destructor calls it.
  void stop();

 private:
  // The single-row queue; throws std::logic_error when there is none.
  BatchQueue& queue();
  void dispatch_loop();
  // Counts the batch and its submit-to-label latencies against `now`, one
  // clock read for the whole batch.
  void record_batch(const BatchQueue::Batch& batch, const Timer& now);
  // swap() with the publishing call site named in the width-mismatch error
  // (api::feature_width_message), so swap_json and binary reloads report
  // their own context.
  std::shared_ptr<const api::Model> publish(
      std::shared_ptr<const api::Model> next, const char* context);

  ServeConfig config_;
  std::size_t row_width_ = 0;

#if defined(MCDC_SERVE_ATOMIC_SNAPSHOT)
  std::atomic<std::shared_ptr<const api::Model>> snapshot_;
#else
  // Fallback (pre-C++20 library or TSan): a mutex guarding only the
  // pointer copy.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const api::Model> snapshot_unsync_;
#endif

  std::unique_ptr<BatchQueue> queue_;  // null when row width is 0
  std::thread dispatcher_;

  std::atomic<std::uint64_t> swaps_{0};

  // Serving counters; written by the dispatcher only, read via stats().
  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t lingered_batches_ = 0;
  std::vector<double> latency_us_;  // ring of the last latency_capacity
  std::size_t latency_next_ = 0;
  Timer session_;                 // epoch for the throughput window
  double first_batch_seconds_ = -1.0;
  double last_batch_seconds_ = -1.0;
};

}  // namespace mcdc::serve

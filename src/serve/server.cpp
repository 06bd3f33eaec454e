#include "serve/server.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "stats/summary.h"

namespace mcdc::serve {

ModelServer::ModelServer(std::shared_ptr<const api::Model> model,
                         ServeConfig config)
    : config_(config) {
  row_width_ = model != nullptr ? model->num_features() : config.row_width;
  if (model != nullptr) {
#if defined(MCDC_SERVE_ATOMIC_SNAPSHOT)
    snapshot_.store(std::move(model));
#else
    snapshot_unsync_ = std::move(model);
#endif
  }
  if (row_width_ > 0) {
    queue_ = std::make_unique<BatchQueue>(row_width_, config_.queue);
    dispatcher_ = std::thread([this] { dispatch_loop(); });
  }
}

ModelServer::~ModelServer() { stop(); }

std::shared_ptr<const api::Model> ModelServer::snapshot() const {
#if defined(MCDC_SERVE_ATOMIC_SNAPSHOT)
  return snapshot_.load();
#else
  std::lock_guard lock(snapshot_mutex_);
  return snapshot_unsync_;
#endif
}

std::shared_ptr<const api::Model> ModelServer::publish(
    std::shared_ptr<const api::Model> next, const char* context) {
  if (next != nullptr && row_width_ > 0 &&
      next->num_features() != row_width_) {
    throw std::invalid_argument(api::feature_width_message(
        context, row_width_, next->num_features()));
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
#if defined(MCDC_SERVE_ATOMIC_SNAPSHOT)
  return snapshot_.exchange(std::move(next));
#else
  std::lock_guard lock(snapshot_mutex_);
  std::swap(snapshot_unsync_, next);
  return next;
#endif
}

std::shared_ptr<const api::Model> ModelServer::swap(
    std::shared_ptr<const api::Model> next) {
  return publish(std::move(next), "ModelServer::swap");
}

std::shared_ptr<const api::Model> ModelServer::swap_json(
    const api::Json& model_json) {
  return publish(std::make_shared<const api::Model>(
                     api::Model::from_json(model_json)),
                 "ModelServer::swap_json");
}

BatchQueue& ModelServer::queue() {
  if (queue_ == nullptr) {
    throw std::logic_error(
        "ModelServer::submit: server was built without a row width");
  }
  return *queue_;
}

int ModelServer::predict(const data::Value* row) {
  return queue().enqueue(row).wait();
}

std::future<int> ModelServer::submit(const data::Value* row) {
  return queue().submit(row);
}

bool ModelServer::idle() const {
  return queue_ != nullptr && queue_->consumer_idle();
}

std::vector<int> ModelServer::predict(const data::DatasetView& ds) const {
  const std::shared_ptr<const api::Model> model = snapshot();
  if (model == nullptr) {
    return std::vector<int>(ds.num_objects(), -1);
  }
  return model->predict(ds);
}

void ModelServer::dispatch_loop() {
#if defined(__linux__)
  // Linux lets a timed wait overshoot by the thread's timer slack, 50 us
  // by default: as long as the default linger itself. 1 us keeps a
  // lingered batch's oldest request within microseconds of linger_us.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
  BatchQueue::Batch batch;
  std::vector<int> labels;
  while (queue_->next_batch(batch)) {
    try {
      // One snapshot load serves the whole batch: a concurrent swap()
      // publishes for the *next* batch, never mid-sweep.
      const std::shared_ptr<const api::Model> model = snapshot();
      labels.assign(batch.count, -1);
      if (model != nullptr) {
        model->predict_rows(batch.rows.data(), batch.count, labels.data());
      }
      // Stats first, labels second: a producer that has redeemed all its
      // futures must find every one of its requests already counted.
      record_batch(batch, Timer());
      batch.complete(labels);
    } catch (...) {
      // A failing sweep (bad_alloc under load, a throwing body rethrown
      // by parallel_chunks) fails the whole batch, never the server: an
      // exception escaping this thread would std::terminate the process.
      // Waiters see it from future::get(); no partial labels are published.
      batch.fail(std::current_exception());
    }
  }
}

void ModelServer::record_batch(const BatchQueue::Batch& batch,
                               const Timer& now) {
  const double now_seconds = session_.seconds_until(now);
  std::lock_guard lock(stats_mutex_);
  requests_ += batch.count;
  ++batches_;
  if (batch.lingered) ++lingered_batches_;
  if (first_batch_seconds_ < 0.0) {
    // The serving window opens at the first batch's earliest submit (its
    // largest queue age), not at its completion — otherwise a session
    // whose traffic coalesced into one batch would report a zero-length
    // window and zero throughput.
    double oldest = 0.0;
    for (std::size_t i = 0; i < batch.count; ++i) {
      oldest = std::max(oldest, batch.enqueued[i].seconds_until(now));
    }
    first_batch_seconds_ = now_seconds - oldest;
  }
  last_batch_seconds_ = now_seconds;
  if (config_.latency_capacity == 0) return;  // keep no latency samples
  if (latency_us_.size() < config_.latency_capacity) {
    latency_us_.reserve(
        std::min(config_.latency_capacity, latency_us_.size() + batch.count));
  }
  for (std::size_t i = 0; i < batch.count; ++i) {
    const double us = batch.enqueued[i].seconds_until(now) * 1e6;
    if (latency_us_.size() < config_.latency_capacity) {
      latency_us_.push_back(us);
    } else {
      latency_us_[latency_next_] = us;
      latency_next_ = (latency_next_ + 1) % config_.latency_capacity;
    }
  }
}

api::ServeEvidence ModelServer::stats() const {
  api::ServeEvidence out;
  out.swaps = swaps_.load(std::memory_order_relaxed);
  std::lock_guard lock(stats_mutex_);
  out.requests = requests_;
  out.batches = batches_;
  out.lingered_batches = lingered_batches_;
  out.batch_occupancy =
      batches_ > 0
          ? static_cast<double>(requests_) / static_cast<double>(batches_)
          : 0.0;
  // Wall-clock of the active serving window: the first batch's earliest
  // submit to the last batch answered.
  const double span = last_batch_seconds_ - first_batch_seconds_;
  out.throughput_rps =
      span > 0.0 ? static_cast<double>(requests_) / span : 0.0;
  out.p50_latency_us = stats::percentile(latency_us_, 0.50);
  out.p99_latency_us = stats::percentile(latency_us_, 0.99);
  out.p999_latency_us = stats::percentile(latency_us_, 0.999);
  return out;
}

std::vector<double> ModelServer::latency_samples() const {
  std::lock_guard lock(stats_mutex_);
  return latency_us_;
}

void ModelServer::stop() {
  if (queue_ != nullptr) queue_->close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

}  // namespace mcdc::serve

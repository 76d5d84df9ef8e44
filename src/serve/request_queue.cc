#include "serve/request_queue.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/string_util.h"

namespace snor::serve {

ReplyOnce::ReplyOnce(ReplyOnce&& other) noexcept
    : promise_(std::exchange(other.promise_, std::nullopt)) {}

ReplyOnce& ReplyOnce::operator=(ReplyOnce&& other) noexcept {
  if (this != &other) {
    DropIfArmed();
    promise_ = std::exchange(other.promise_, std::nullopt);
  }
  return *this;
}

ReplyOnce::~ReplyOnce() { DropIfArmed(); }

std::future<Result<ServiceReply>> ReplyOnce::Arm() {
  SNOR_CHECK_MSG(!armed(), "ReplyOnce armed twice");
  return promise_.emplace().get_future();
}

void ReplyOnce::Answer(Result<ServiceReply> result) && {
  SNOR_CHECK_MSG(armed(), "ReplyOnce answered while empty");
  promise_->set_value(std::move(result));
  promise_.reset();
}

void ReplyOnce::DropIfArmed() {
  if (!armed()) return;
  static obs::Counter& dropped = obs::MetricsRegistry::Global().counter(
      "serve.service.dropped_replies");
  dropped.Increment();
  std::move(*this).Answer(
      Result<ServiceReply>(Status::Internal("dropped reply")));
}

RequestQueue::RequestQueue(const RequestQueueOptions& options)
    : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.shed_watermark == 0 ||
      options_.shed_watermark > options_.capacity) {
    options_.shed_watermark = std::max<std::size_t>(
        1, options_.capacity - options_.capacity / 4);
  }
}

Status RequestQueue::Enqueue(QueuedRequest& request) {
  static obs::Counter& shed_counter =
      obs::MetricsRegistry::Global().counter("serve.queue.shed");
  static obs::Counter& enqueued_counter =
      obs::MetricsRegistry::Global().counter("serve.queue.enqueued");
  static obs::Gauge& depth_gauge =
      obs::MetricsRegistry::Global().gauge("serve.queue.depth");
  std::lock_guard<obs::RankedMutex> lock(mutex_);
  if (closed_) {
    return Status::Unavailable(
        "request queue is draining (closed to new admissions)");
  }
  const std::size_t depth = queue_.size();
  if (depth >= options_.capacity ||
      (request.has_deadline && depth >= options_.shed_watermark)) {
    ++stats_.shed;
    shed_counter.Increment();
    return Status::Unavailable(
        StrFormat("request shed by admission control (queue depth %zu, "
                  "watermark %zu, capacity %zu)",
                  depth, options_.shed_watermark, options_.capacity));
  }
  queue_.push_back(std::move(request));
  ++stats_.enqueued;
  enqueued_counter.Increment();
  depth_gauge.Set(static_cast<double>(queue_.size()));
  cv_.NotifyOne();
  return Status::OK();
}

std::vector<QueuedRequest> RequestQueue::PopBatch(std::size_t max_batch) {
  static obs::Gauge& depth_gauge =
      obs::MetricsRegistry::Global().gauge("serve.queue.depth");
  std::unique_lock<obs::RankedMutex> lock(mutex_);
  cv_.WaitFor(lock, [&] { return closed_ || !queue_.empty(); });
  const std::size_t n =
      std::min(max_batch == 0 ? std::size_t{1} : max_batch, queue_.size());
  std::vector<QueuedRequest> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  stats_.dequeued += n;
  depth_gauge.Set(static_cast<double>(queue_.size()));
  return batch;
}

void RequestQueue::Close() {
  {
    std::lock_guard<obs::RankedMutex> lock(mutex_);
    closed_ = true;
  }
  cv_.NotifyAll();
}

std::size_t RequestQueue::depth() const {
  std::lock_guard<obs::RankedMutex> lock(mutex_);
  return queue_.size();
}

bool RequestQueue::closed() const {
  std::lock_guard<obs::RankedMutex> lock(mutex_);
  return closed_;
}

RequestQueueStats RequestQueue::stats() const {
  std::lock_guard<obs::RankedMutex> lock(mutex_);
  return stats_;
}

}  // namespace snor::serve

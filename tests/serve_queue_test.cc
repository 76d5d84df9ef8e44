// RequestQueue unit tests: FIFO order, deadline-aware admission control
// (shed watermark vs hard cap), drain-on-close semantics, and the
// blocking PopBatch wake-up paths.

#include "serve/request_queue.h"

#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace snor::serve {
namespace {

QueuedRequest MakeRequest(std::uint64_t id, bool has_deadline = false) {
  QueuedRequest request;
  request.id = id;
  request.enqueue_time = std::chrono::steady_clock::now();
  request.has_deadline = has_deadline;
  if (has_deadline) {
    request.deadline = request.enqueue_time + std::chrono::seconds(10);
  }
  return request;
}

TEST(ServeQueueTest, PopBatchPreservesFifoOrderAndRespectsMaxBatch) {
  RequestQueueOptions options;
  options.capacity = 16;
  RequestQueue queue(options);

  for (std::uint64_t id = 0; id < 5; ++id) {
    QueuedRequest request = MakeRequest(id);
    ASSERT_TRUE(queue.Enqueue(request).ok());
  }
  EXPECT_EQ(queue.depth(), 5u);

  auto first = queue.PopBatch(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].id, 0u);
  EXPECT_EQ(first[1].id, 1u);
  EXPECT_EQ(first[2].id, 2u);

  auto rest = queue.PopBatch(100);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].id, 3u);
  EXPECT_EQ(rest[1].id, 4u);
  EXPECT_EQ(queue.depth(), 0u);

  const RequestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.enqueued, 5u);
  EXPECT_EQ(stats.dequeued, 5u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(ServeQueueTest, WatermarkShedsOnlyDeadlineCarryingRequests) {
  RequestQueueOptions options;
  options.capacity = 8;
  options.shed_watermark = 2;
  RequestQueue queue(options);

  // Fill to the watermark with deadline-free requests.
  for (std::uint64_t id = 0; id < 2; ++id) {
    QueuedRequest request = MakeRequest(id);
    ASSERT_TRUE(queue.Enqueue(request).ok());
  }

  // At the watermark a deadline request is shed (it would expire behind
  // the backlog), while a deadline-free request is still admitted.
  QueuedRequest with_deadline = MakeRequest(100, /*has_deadline=*/true);
  std::future<Result<ServiceReply>> future = with_deadline.reply.Arm();
  const Status shed = queue.Enqueue(with_deadline);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  // The request was untouched: the caller still owns an armed reply.
  ASSERT_TRUE(with_deadline.reply.armed());
  std::move(with_deadline.reply).Answer(Result<ServiceReply>(shed));
  EXPECT_EQ(future.get().status().code(), StatusCode::kUnavailable);

  QueuedRequest without_deadline = MakeRequest(101);
  EXPECT_TRUE(queue.Enqueue(without_deadline).ok());

  const RequestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.enqueued, 3u);
}

TEST(ServeQueueTest, HardCapShedsEveryRequest) {
  RequestQueueOptions options;
  options.capacity = 3;
  options.shed_watermark = 3;  // Watermark == cap: only the cap matters.
  RequestQueue queue(options);

  for (std::uint64_t id = 0; id < 3; ++id) {
    QueuedRequest request = MakeRequest(id);
    ASSERT_TRUE(queue.Enqueue(request).ok());
  }
  QueuedRequest overflow = MakeRequest(99);
  EXPECT_EQ(queue.Enqueue(overflow).code(), StatusCode::kUnavailable);
  EXPECT_EQ(queue.stats().shed, 1u);
  EXPECT_EQ(queue.depth(), 3u);
}

TEST(ServeQueueTest, DefaultWatermarkIsThreeQuartersOfCapacity) {
  RequestQueueOptions options;
  options.capacity = 100;
  RequestQueue queue(options);
  EXPECT_EQ(queue.options().shed_watermark, 75u);

  RequestQueueOptions tiny;
  tiny.capacity = 0;  // Clamped to 1, watermark clamped to >= 1.
  RequestQueue tiny_queue(tiny);
  EXPECT_EQ(tiny_queue.options().capacity, 1u);
  EXPECT_EQ(tiny_queue.options().shed_watermark, 1u);
}

TEST(ServeQueueTest, CloseDrainsQueuedRequestsThenSignalsExit) {
  RequestQueueOptions options;
  options.capacity = 8;
  RequestQueue queue(options);

  for (std::uint64_t id = 0; id < 4; ++id) {
    QueuedRequest request = MakeRequest(id);
    ASSERT_TRUE(queue.Enqueue(request).ok());
  }
  queue.Close();
  EXPECT_TRUE(queue.closed());

  // New admissions fail immediately...
  QueuedRequest late = MakeRequest(50);
  EXPECT_EQ(queue.Enqueue(late).code(), StatusCode::kUnavailable);
  // ...but everything already queued is still poppable, in order.
  auto drained = queue.PopBatch(10);
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].id, 0u);
  EXPECT_EQ(drained[3].id, 3u);
  // Closed and empty: the empty batch is the dispatcher's exit signal.
  EXPECT_TRUE(queue.PopBatch(10).empty());
}

TEST(ServeQueueTest, PopBatchBlocksUntilPushArrives) {
  RequestQueueOptions options;
  options.capacity = 4;
  RequestQueue queue(options);

  std::thread consumer([&] {
    auto batch = queue.PopBatch(4);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].id, 7u);
  });
  // Give the consumer a moment to actually block on the empty queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  QueuedRequest request = MakeRequest(7);
  ASSERT_TRUE(queue.Enqueue(request).ok());
  consumer.join();
}

TEST(ServeQueueTest, CloseWakesBlockedPopBatch) {
  RequestQueueOptions options;
  RequestQueue queue(options);
  std::thread consumer([&] { EXPECT_TRUE(queue.PopBatch(4).empty()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
}

}  // namespace
}  // namespace snor::serve

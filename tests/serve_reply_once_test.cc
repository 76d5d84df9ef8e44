// ReplyOnce (serve/request_queue.h): an armed handle is answered exactly
// once — by Answer, or with Internal("dropped reply") when destroyed
// first — an empty handle never replies or counts, and answering twice
// aborts in every build.

#include <future>
#include <utility>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "serve/request_queue.h"

namespace snor::serve {
namespace {

std::uint64_t DroppedReplies() {
  return obs::MetricsRegistry::Global()
      .counter("serve.service.dropped_replies")
      .value();
}

TEST(ServeReplyOnceTest, AnswerFulfilsTheArmedFuture) {
  const std::uint64_t dropped_before = DroppedReplies();
  ReplyOnce reply;
  std::future<Result<ServiceReply>> future = reply.Arm();
  EXPECT_TRUE(reply.armed());
  ServiceReply answer;
  answer.label = ObjectClass::kBottle;
  std::move(reply).Answer(Result<ServiceReply>(answer));
  EXPECT_FALSE(reply.armed());  // NOLINT(use-after-move): Answer empties it.
  const Result<ServiceReply> result = future.get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().label, ObjectClass::kBottle);
  EXPECT_EQ(DroppedReplies(), dropped_before);
}

TEST(ServeReplyOnceTest, DestroyedArmedHandleRepliesDroppedAndCounts) {
  const std::uint64_t dropped_before = DroppedReplies();
  std::future<Result<ServiceReply>> future;
  {
    QueuedRequest request;
    future = request.reply.Arm();
  }
  const Result<ServiceReply> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.status().message(), "dropped reply");
  EXPECT_EQ(DroppedReplies(), dropped_before + 1);
}

TEST(ServeReplyOnceTest, EmptyHandlesNeitherReplyNorCount) {
  const std::uint64_t dropped_before = DroppedReplies();
  { ReplyOnce never_armed; }
  {
    // The perfbench queue probe's shape: a default request, enqueued,
    // popped and dropped.
    RequestQueue queue(RequestQueueOptions{});
    QueuedRequest request;
    ASSERT_TRUE(queue.Enqueue(request).ok());
    EXPECT_EQ(queue.PopBatch(1).size(), 1u);
  }
  std::future<Result<ServiceReply>> future;
  {
    ReplyOnce armed;
    future = armed.Arm();
    ReplyOnce moved_to(std::move(armed));
    EXPECT_FALSE(armed.armed());  // NOLINT(use-after-move): checks the empty state.
    std::move(moved_to).Answer(Result<ServiceReply>(ServiceReply{}));
  }  // Both handles are empty here: no drop.
  EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(DroppedReplies(), dropped_before);
}

TEST(ServeReplyOnceTest, AnsweringTwiceDies) {
  EXPECT_DEATH(
      {
        ReplyOnce reply;
        std::future<Result<ServiceReply>> future = reply.Arm();
        std::move(reply).Answer(Result<ServiceReply>(ServiceReply{}));
        // NOLINTNEXTLINE(use-after-move): the second answer must abort.
        std::move(reply).Answer(Result<ServiceReply>(ServiceReply{}));
      },
      "ReplyOnce answered while empty");
  EXPECT_DEATH(
      {
        ReplyOnce never_armed;
        std::move(never_armed).Answer(Result<ServiceReply>(ServiceReply{}));
      },
      "ReplyOnce answered while empty");
}

}  // namespace
}  // namespace snor::serve

#include "common/resource_guard.h"

#include <gtest/gtest.h>

namespace netrev {
namespace {

TEST(WorkBudget, UnlimitedByDefault) {
  WorkBudget budget;
  EXPECT_FALSE(budget.limited());
  for (int i = 0; i < 1000; ++i) budget.charge();
  EXPECT_EQ(budget.spent(), 1000u);
}

TEST(WorkBudget, ThrowsWhenExceeded) {
  WorkBudget budget(10);
  EXPECT_TRUE(budget.limited());
  for (int i = 0; i < 10; ++i) budget.charge();
  EXPECT_THROW(budget.charge(), ResourceLimitError);
}

TEST(WorkBudget, ChargesInBulk) {
  WorkBudget budget(100);
  budget.charge(90);
  EXPECT_EQ(budget.spent(), 90u);
  EXPECT_THROW(budget.charge(20), ResourceLimitError);
}

TEST(WorkBudgetMeter, ChargesEachFullStrideAsItFills) {
  WorkBudget budget;
  WorkBudget::Meter meter(&budget);
  for (std::size_t i = 0; i + 1 < WorkBudget::kPollStride; ++i) meter.tick();
  EXPECT_EQ(budget.spent(), 0u) << "a partial stride stays local";
  meter.tick();
  EXPECT_EQ(budget.spent(), WorkBudget::kPollStride);
  for (std::size_t i = 0; i < WorkBudget::kPollStride; ++i) meter.tick();
  EXPECT_EQ(budget.spent(), 2 * WorkBudget::kPollStride);
  meter.flush();  // nothing pending: no charge
  EXPECT_EQ(budget.spent(), 2 * WorkBudget::kPollStride);
}

TEST(WorkBudgetMeter, FlushChargesTheRemainderOnce) {
  WorkBudget budget;
  WorkBudget::Meter meter(&budget);
  for (int i = 0; i < 5; ++i) meter.tick();
  EXPECT_EQ(budget.spent(), 0u);
  meter.flush();
  EXPECT_EQ(budget.spent(), 5u);
  meter.flush();
  EXPECT_EQ(budget.spent(), 5u);
}

TEST(WorkBudgetMeter, TotalsAreExactAcrossWalks) {
  // Several walks of assorted lengths, each with its own meter: the budget
  // ends at the exact number of ticks, as with one charge() per tick.
  WorkBudget metered;
  WorkBudget per_tick;
  for (std::size_t length : {0u, 1u, 1023u, 1024u, 1025u, 4096u, 5000u}) {
    WorkBudget::Meter meter(&metered);
    for (std::size_t i = 0; i < length; ++i) {
      meter.tick();
      per_tick.charge();
    }
    meter.flush();
  }
  EXPECT_EQ(metered.spent(), per_tick.spent());
}

TEST(WorkBudgetMeter, NullBudgetIsANoOp) {
  WorkBudget::Meter meter(nullptr);
  for (std::size_t i = 0; i < 3 * WorkBudget::kPollStride; ++i) meter.tick();
  meter.flush();
}

TEST(WorkBudgetMeter, TripsIffTotalExceedsLimit) {
  const auto run = [](std::size_t limit, std::size_t ticks) {
    WorkBudget budget(limit);
    WorkBudget::Meter meter(&budget);
    for (std::size_t i = 0; i < ticks; ++i) meter.tick();
    meter.flush();
  };
  // A limit of 0 means unlimited, so the smallest case is 2 ticks.
  for (std::size_t ticks : {2u, 1000u, 1024u, 1025u, 3000u}) {
    EXPECT_NO_THROW(run(ticks, ticks)) << ticks;
    EXPECT_THROW(run(ticks - 1, ticks), ResourceLimitError) << ticks;
  }
}

TEST(WorkBudgetMeter, PollsTheCheckpointOnEveryStride) {
  // A cancelled token: the first poll throws.  Fewer ticks than a stride
  // never poll; a full stride does.
  exec::CancelToken token;
  token.request_cancel();
  const exec::Checkpoint cancelled(token, exec::Deadline{});
  WorkBudget budget;
  budget.set_checkpoint(&cancelled);
  WorkBudget::Meter meter(&budget);
  for (std::size_t i = 0; i + 1 < WorkBudget::kPollStride; ++i) meter.tick();
  EXPECT_THROW(meter.tick(), exec::CancelledError);
  EXPECT_EQ(budget.spent(), WorkBudget::kPollStride);

  // Every later stride polls again, wherever the shared total stands.
  WorkBudget shared;
  shared.charge(7);  // another walk's remainder: the total is off-stride
  shared.set_checkpoint(&cancelled);
  WorkBudget::Meter second(&shared);
  for (std::size_t i = 0; i + 1 < WorkBudget::kPollStride; ++i) second.tick();
  EXPECT_THROW(second.tick(), exec::CancelledError);
}

TEST(ResourceLimits, DefaultsAreGenerous) {
  const ResourceLimits limits;
  EXPECT_GE(limits.max_file_bytes, std::size_t{1} << 20);
  EXPECT_GE(limits.max_nets, 1'000'000u);
  EXPECT_GE(limits.max_gates, 1'000'000u);
}

TEST(ResourceLimitError, IsARuntimeError) {
  // CLI and harness catch it as a documented, graceful abort.
  const ResourceLimitError error("cone budget exhausted");
  EXPECT_NE(std::string(error.what()).find("cone"), std::string::npos);
}

}  // namespace
}  // namespace netrev

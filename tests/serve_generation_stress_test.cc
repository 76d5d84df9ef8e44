#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/feature_bank.h"
#include "serve/feature_store.h"
#include "util/parallel.h"

namespace snor::serve {
namespace {

/// TSan-preset stress for bank row lifetimes: row pointers are taken
/// INSIDE ParallelFor workers and never survive past the batch, while
/// FeatureStore round-trips replace the bank between batches. Run under
/// the `tsan` preset this shows the pattern is race-free.

FeatureOptions SmallOptions() {
  FeatureOptions options;
  options.hist_bins = 4;
  return options;
}

Dataset SmallDataset() {
  DatasetOptions dataset_options;
  dataset_options.canvas_size = 32;
  return MakeShapeNetSet2(dataset_options);
}

/// Per-view digest a worker can compute from rows it derives itself.
double RowDigest(const FeatureBank& bank, std::size_t i) {
  const double* hu = bank.HuRow(i);
  const double* hist = bank.HistRow(i);
  double d = bank.IsValid(i) ? 1.0 : 0.0;
  for (std::size_t k = 0; k < 7; ++k) d += hu[k];
  for (std::size_t k = 0; k < bank.hist_bins; ++k) d += hist[k];
  return d;
}

/// One scan batch: every worker re-derives its rows from the snapshot it
/// was handed — no pointer outlives the worker body.
std::vector<double> ScanBatch(const FeatureBank& bank, int n_threads) {
  std::vector<double> digests(bank.size(), 0.0);
  ParallelFor(
      bank.size(),
      [&](std::size_t i) { digests[i] = RowDigest(bank, i); }, n_threads);
  return digests;
}

TEST(GenerationStressTest, StoreRoundTripsBetweenBatchesStayBitIdentical) {
  const Dataset dataset = SmallDataset();
  const FeatureOptions options = SmallOptions();
  const std::string path =
      testing::TempDir() + "/snor_generation_seq.fst";
  std::remove(path.c_str());

  auto cold = LoadOrComputeFeatures(path, dataset, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  FeatureBank bank = PackFeatureBank(cold.value());
  ASSERT_GT(bank.size(), 0u);
  const std::vector<double> expected = ScanBatch(bank, 4);

  // Alternate batches with store round-trips that REPLACE the bank
  // (reassignment ends every row pointer into it); every batch
  // re-derives its rows, so results never drift.
  for (int round = 0; round < 4; ++round) {
    auto warm = LoadOrComputeFeatures(path, dataset, options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    bank = PackFeatureBank(warm.value());
    const std::vector<double> got = ScanBatch(bank, 2 + round);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "round " << round << " view " << i;
    }
  }
}

TEST(GenerationStressTest, LiveSnapshotSwapUnderScannersIsRaceFree) {
  const Dataset dataset = SmallDataset();
  const FeatureOptions options = SmallOptions();
  const std::string path =
      testing::TempDir() + "/snor_generation_swap.fst";
  std::remove(path.c_str());

  auto cold = LoadOrComputeFeatures(path, dataset, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // The live-gallery snapshot-swap shape: scanners pin the current
  // generation at the BATCH boundary (shared_ptr copy under the lock),
  // take row views only inside workers, and drop the pin when the batch
  // ends; the publisher builds each new generation off to the side and
  // swaps the pointer under the same lock. The retired generation stays
  // alive until its last scanner finishes — no view ever dangles.
  std::mutex mu;
  auto live = std::make_shared<const FeatureBank>(
      PackFeatureBank(cold.value()));
  const std::vector<double> expected = ScanBatch(*live, 4);

  constexpr int kSwaps = 6;
  constexpr int kScanners = 3;
  constexpr int kBatchesPerScanner = 8;

  std::thread publisher([&] {
    for (int s = 0; s < kSwaps; ++s) {
      auto warm = LoadOrComputeFeatures(path, dataset, options);
      if (!warm.ok()) return;  // Scanner EXPECTs still run on old data.
      auto next = std::make_shared<const FeatureBank>(
          PackFeatureBank(warm.value()));
      std::lock_guard<std::mutex> lock(mu);
      live = std::move(next);
    }
  });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> scanners;
  scanners.reserve(kScanners);
  for (int c = 0; c < kScanners; ++c) {
    scanners.emplace_back([&, c] {
      for (int b = 0; b < kBatchesPerScanner; ++b) {
        std::shared_ptr<const FeatureBank> snapshot;
        {
          std::lock_guard<std::mutex> lock(mu);
          snapshot = live;
        }
        const std::vector<double> got = ScanBatch(*snapshot, 2 + c);
        if (got != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : scanners) t.join();
  publisher.join();
  // Every generation packs the same persisted features bit-for-bit, so
  // any schedule must produce identical digests.
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace snor::serve

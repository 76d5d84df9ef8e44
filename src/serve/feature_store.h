#ifndef SNOR_SERVE_FEATURE_STORE_H_
#define SNOR_SERVE_FEATURE_STORE_H_

/// \file
/// Persistent, versioned binary feature store.
///
/// The paper's pipelines re-extract Hu moments, histograms, and keypoint
/// descriptors for every gallery view on every run. The store persists
/// them once so later runs memory-load the feature bank (the "warm path")
/// instead of re-rendering and re-processing images.
///
/// On-disk format (all integers little-endian, native layout):
///
///   magic "SNORFST1" (8 bytes)
///   u32   format version (kFeatureStoreVersion)
///   u64   options fingerprint (OptionsFingerprint of the extraction
///         options that produced the records; loads with a different
///         fingerprint are rejected so stale stores can never silently
///         feed a run computed under other options)
///   u32   record count
///   per record:
///     u32   payload size in bytes
///     bytes payload (label, model id, valid flag, Hu moments, colour
///           histogram, per-view float + binary keypoint descriptors)
///     u64   FNV-1a checksum of the payload (bit-rot detection)
///
/// All load/save paths propagate `Status` (never abort on bad files) and
/// probe the existing fault-injection hooks: `io-read` on open and
/// `truncated-file` per record, so the corrupt/truncated behaviour is
/// deterministically testable.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/feature_bank.h"
#include "core/feature_cache.h"
#include "data/dataset.h"
#include "features/keypoint.h"
#include "util/status.h"

namespace snor::serve {

/// Bump when the record layout changes; old files are rejected with
/// `IoError` instead of being misparsed.
inline constexpr std::uint32_t kFeatureStoreVersion = 1;

/// \brief One persisted view: the matching features consumed by the
/// classifiers plus the view's keypoint descriptors (either family may be
/// empty when the producing pipeline does not use it).
struct StoredView {
  ImageFeatures features;
  std::vector<FloatDescriptor> float_descriptors;
  std::vector<BinaryDescriptor> binary_descriptors;
};

/// \brief SoA pack of a loaded gallery: the matching-feature bank plus
/// flat per-approach descriptor banks, with per-view row ranges so a
/// view's descriptors stay addressable after flattening.
///
/// This is the warm-path in-memory layout: load (or compute) StoredViews
/// once, pack them, and hand the banks to the batch kernels. Packing
/// copies values bit-for-bit — no renormalization, no re-extraction — so
/// a warm run scores exactly what the cold run scored.
///
/// Row pointers into these banks die when the aggregate is destroyed,
/// reassigned or repacked.
struct StoredViewBanks {
  FeatureBank features;
  FloatDescriptorBank float_bank;
  BinaryDescriptorBank binary_bank;
  /// Per-view [begin, end) row ranges into float_bank / binary_bank.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> float_ranges;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> binary_ranges;
};

/// Packs stored views into SoA banks (counts `serve.store.packed_views`).
/// Views with float descriptors must agree on descriptor dimension.
[[nodiscard]] StoredViewBanks PackStoredViews(
    const std::vector<StoredView>& views);

/// Stable fingerprint of every extraction option that changes record
/// content. Loading a store written under different options fails instead
/// of silently mixing feature spaces.
[[nodiscard]] std::uint64_t OptionsFingerprint(const FeatureOptions& options);

/// Serializes `views` to `path`, replacing any old file atomically
/// (WriteFileAtomically). Fails with `IoError` when the file cannot be
/// written; the old file is then left as it was.
[[nodiscard]] Status SaveFeatureStore(const std::string& path,
                                      std::uint64_t options_fingerprint,
                                      const std::vector<StoredView>& views);

/// Restores a store written by SaveFeatureStore. Fails with `IoError` on
/// bad magic, version mismatch, truncation, or a per-record checksum
/// mismatch, and with `InvalidArgument` when the file's options
/// fingerprint differs from `expected_fingerprint`.
[[nodiscard]] Result<std::vector<StoredView>> LoadFeatureStore(
    const std::string& path, std::uint64_t expected_fingerprint);

/// Convenience wrappers for descriptor-less feature banks (the Table-2
/// matching pipelines): plain `ImageFeatures` in, plain out.
[[nodiscard]] Status SaveFeatureBank(const std::string& path,
                                     std::uint64_t options_fingerprint,
                                     const std::vector<ImageFeatures>& bank);
[[nodiscard]] Result<std::vector<ImageFeatures>> LoadFeatureBank(
    const std::string& path, std::uint64_t expected_fingerprint);

/// Lazily yields the dataset to extract from on a store miss. Keeping the
/// dataset behind a callback lets a store hit skip dataset construction
/// (rendering every view) entirely — that, not extraction, dominates the
/// cold cost of the table benches.
using DatasetProvider = std::function<const Dataset&()>;

/// The warm path: loads `path` when it holds a compatible bank (counts
/// `serve.store.hit`), otherwise materialises the dataset, computes its
/// features with `options`, persists them to `path` for the next run, and
/// returns them (counts `serve.store.miss`). A failed save is logged and
/// non-fatal — the computed features are still returned.
[[nodiscard]] Result<std::vector<ImageFeatures>> LoadOrComputeFeatures(
    const std::string& path, const DatasetProvider& dataset,
    const FeatureOptions& options);

/// Eager-dataset convenience overload of the above.
[[nodiscard]] Result<std::vector<ImageFeatures>> LoadOrComputeFeatures(
    const std::string& path, const Dataset& dataset,
    const FeatureOptions& options);

}  // namespace snor::serve

#endif  // SNOR_SERVE_FEATURE_STORE_H_

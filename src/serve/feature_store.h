#ifndef SNOR_SERVE_FEATURE_STORE_H_
#define SNOR_SERVE_FEATURE_STORE_H_

/// \file
/// Persistent, versioned binary feature store.
///
/// The paper's pipelines re-extract Hu moments and colour histograms for
/// every gallery view on every run. The store persists them once so later
/// runs memory-load the feature bank (the "warm path") instead of
/// re-rendering and re-processing images. It is the project's only
/// on-disk feature format.
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
///     bytes payload: one ImageFeatures (i32 label, i32 model id, u8
///           valid flag, 7 f64 Hu moments, i32 bins per channel, f64
///           histogram bins)
///     u64   FNV-1a checksum of the payload (bit-rot detection)
///
/// All load/save paths propagate `Status` (never abort on bad files) and
/// probe the existing fault-injection hooks: `io-read` on open and
/// `truncated-file` per record, so the corrupt/truncated behaviour is
/// deterministically testable.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/feature_cache.h"
#include "data/dataset.h"
#include "util/status.h"

namespace snor::serve {

/// Bump when the record layout changes; old files are rejected with
/// `IoError` instead of being misparsed.
inline constexpr std::uint32_t kFeatureStoreVersion = 2;

/// Stable fingerprint of every extraction option that changes record
/// content. Loading a store written under different options fails instead
/// of silently mixing feature spaces.
[[nodiscard]] std::uint64_t OptionsFingerprint(const FeatureOptions& options);

/// Serializes `bank` to `path`, replacing any old file atomically
/// (WriteFileAtomically). Fails with `IoError` when the file cannot be
/// written; the old file is then left as it was.
[[nodiscard]] Status SaveFeatureBank(const std::string& path,
                                     std::uint64_t options_fingerprint,
                                     const std::vector<ImageFeatures>& bank);

/// Restores a bank written by SaveFeatureBank. Fails with `IoError` on
/// bad magic, version mismatch, truncation, or a per-record checksum
/// mismatch, and with `InvalidArgument` when the file's options
/// fingerprint differs from `expected_fingerprint`.
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

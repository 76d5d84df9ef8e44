#include "serve/feature_store.h"

#include <cstring>
#include <fstream>

#include "obs/lock_rank.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace snor::serve {

namespace {

constexpr char kMagic[8] = {'S', 'N', 'O', 'R', 'F', 'S', 'T', '1'};

/// Records larger than this are rejected as corrupt before allocating.
constexpr std::uint32_t kMaxRecordBytes = 256u * 1024u * 1024u;

/// Smallest record on disk: its size field, a payload holding a one-bin
/// histogram, and its checksum. Bounds the record count a file of a given
/// size can hold.
constexpr std::uint64_t kMinRecordBytes =
    sizeof(std::uint32_t) + 2 * sizeof(std::int32_t) + sizeof(std::uint8_t) +
    sizeof(HuMoments) + sizeof(std::int32_t) + sizeof(double) +
    sizeof(std::uint64_t);

// --------------------------------------------------------------- hashing --

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = kFnvOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
std::uint64_t HashPod(std::uint64_t seed, const T& value) {
  return Fnv1a(&value, sizeof(T), seed);
}

// ----------------------------------------------------- buffer (de)coding --

/// Appends the raw bytes of `value` to a record payload, which is
/// serialized in full first so the checksum covers exactly the bytes on
/// disk.
template <typename T>
void PutPod(std::string* payload, const T& value) {
  payload->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Cursor over a record payload; every read is bounds-checked so a
/// corrupt length can never over-read.
class Decoder {
 public:
  explicit Decoder(const std::string& buffer) : buffer_(buffer) {}

  template <typename T>
  [[nodiscard]] bool Pod(T* value) {
    if (pos_ + sizeof(T) > buffer_.size()) return false;
    std::memcpy(value, buffer_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  [[nodiscard]] bool Bytes(void* out, std::size_t size) {
    if (pos_ + size > buffer_.size()) return false;
    std::memcpy(out, buffer_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  std::size_t remaining() const { return buffer_.size() - pos_; }
  bool exhausted() const { return pos_ == buffer_.size(); }

 private:
  const std::string& buffer_;
  std::size_t pos_ = 0;
};

void EncodeFeatures(const ImageFeatures& f, std::string* payload) {
  PutPod(payload, static_cast<std::int32_t>(ClassIndex(f.label)));
  PutPod(payload, static_cast<std::int32_t>(f.model_id));
  PutPod(payload, static_cast<std::uint8_t>(f.valid ? 1 : 0));
  for (double h : f.hu) PutPod(payload, h);
  PutPod(payload, static_cast<std::int32_t>(f.histogram.bins_per_channel()));
  const auto& bins = f.histogram.bins();
  payload->append(reinterpret_cast<const char*>(bins.data()),
                  bins.size() * sizeof(double));
}

Status DecodeFeatures(const std::string& payload, ImageFeatures* f) {
  Decoder dec(payload);
  std::int32_t label = 0;
  std::int32_t model_id = 0;
  std::uint8_t valid = 0;
  if (!dec.Pod(&label) || !dec.Pod(&model_id) || !dec.Pod(&valid)) {
    return Status::IoError("truncated record header");
  }
  if (label < 0 || label >= kNumClasses) {
    return Status::IoError(StrFormat("bad class index %d", label));
  }
  f->label = ClassFromIndex(label);
  f->model_id = model_id;
  f->valid = valid != 0;
  for (double& h : f->hu) {
    if (!dec.Pod(&h)) return Status::IoError("truncated Hu moments");
  }
  std::int32_t bins_per_channel = 0;
  if (!dec.Pod(&bins_per_channel) || bins_per_channel <= 0 ||
      bins_per_channel > 256) {
    return Status::IoError("bad histogram bin count");
  }
  const auto side = static_cast<std::size_t>(bins_per_channel);
  if (side * side * side * sizeof(double) > dec.remaining()) {
    return Status::IoError("truncated histogram payload");
  }
  f->histogram = ColorHistogram(bins_per_channel);
  auto& bins = f->histogram.bins();
  if (!dec.Bytes(bins.data(), bins.size() * sizeof(double))) {
    return Status::IoError("truncated histogram payload");
  }
  if (!dec.exhausted()) {
    return Status::IoError("trailing bytes in record payload");
  }
  return Status::OK();
}

}  // namespace

std::uint64_t OptionsFingerprint(const FeatureOptions& options) {
  std::uint64_t h = kFnvOffset;
  h = HashPod(h, kFeatureStoreVersion);
  h = HashPod(h, static_cast<std::uint8_t>(options.preprocess.white_background));
  h = HashPod(h, options.preprocess.white_threshold);
  h = HashPod(h, options.preprocess.black_threshold);
  h = HashPod(h, static_cast<std::uint8_t>(options.preprocess.use_otsu));
  h = HashPod(h, static_cast<std::int32_t>(
                     options.preprocess.min_component_pixels));
  h = HashPod(h, static_cast<std::int32_t>(options.hist_bins));
  h = HashPod(h, static_cast<std::uint8_t>(options.mask_histogram));
  h = HashPod(h, static_cast<std::uint8_t>(options.use_hsv));
  return h;
}

Status SaveFeatureBank(const std::string& path,
                       std::uint64_t options_fingerprint,
                       const std::vector<ImageFeatures>& bank) {
  SNOR_TRACE_SPAN("serve.store.save");
  static obs::Counter& bytes_written =
      obs::MetricsRegistry::Global().counter("serve.store.bytes_written");
  static obs::Counter& records_written =
      obs::MetricsRegistry::Global().counter("serve.store.records_written");
  std::uint64_t total_bytes = 0;
  SNOR_RETURN_NOT_OK(WriteFileAtomically(path, [&](std::ostream& out) {
    out.write(kMagic, sizeof(kMagic));
    total_bytes = sizeof(kMagic);
    auto write_pod = [&](const auto& value) {
      out.write(reinterpret_cast<const char*>(&value), sizeof(value));
      total_bytes += sizeof(value);
    };
    write_pod(kFeatureStoreVersion);
    write_pod(options_fingerprint);
    write_pod(static_cast<std::uint32_t>(bank.size()));
    std::string payload;
    for (const ImageFeatures& features : bank) {
      payload.clear();
      EncodeFeatures(features, &payload);
      write_pod(static_cast<std::uint32_t>(payload.size()));
      out.write(payload.data(),
                static_cast<std::streamsize>(payload.size()));
      write_pod(Fnv1a(payload.data(), payload.size()));
      total_bytes += payload.size();
    }
  }));
  bytes_written.Increment(total_bytes);
  records_written.Increment(bank.size());
  return Status::OK();
}

Result<std::vector<ImageFeatures>> LoadFeatureBank(
    const std::string& path, std::uint64_t expected_fingerprint) {
  obs::AssertNoRankedLockHeld("LoadFeatureBank");
  SNOR_TRACE_SPAN("serve.store.load");
  static obs::Histogram& load_latency_us =
      obs::MetricsRegistry::Global().histogram("serve.store.load_latency_us");
  const obs::ScopedLatencyUs latency(load_latency_us);
  static obs::Counter& bytes_read =
      obs::MetricsRegistry::Global().counter("serve.store.bytes_read");
  SNOR_RETURN_NOT_OK(
      InjectFault(FaultPoint::kIoRead, "LoadFeatureBank " + path));
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("bad feature-store magic: " + path);
  }
  auto read_pod = [&](auto* value) {
    in.read(reinterpret_cast<char*>(value), sizeof(*value));
    return static_cast<bool>(in);
  };
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t count = 0;
  if (!read_pod(&version) || !read_pod(&fingerprint) || !read_pod(&count)) {
    return Status::IoError("truncated feature-store header: " + path);
  }
  if (version != kFeatureStoreVersion) {
    return Status::IoError(
        StrFormat("feature-store version %u, expected %u: %s", version,
                  kFeatureStoreVersion, path.c_str()));
  }
  if (fingerprint != expected_fingerprint) {
    return Status::InvalidArgument(StrFormat(
        "feature-store options fingerprint %016llx does not match the "
        "requested extraction options (%016llx): %s",
        static_cast<unsigned long long>(fingerprint),
        static_cast<unsigned long long>(expected_fingerprint), path.c_str()));
  }
  std::uint64_t total_bytes = sizeof(kMagic) + sizeof(version) +
                              sizeof(fingerprint) + sizeof(count);
  // Bound the count by what the file can hold before reserving for it.
  if (total_bytes > file_size ||
      count > (file_size - total_bytes) / kMinRecordBytes) {
    return Status::IoError(StrFormat(
        "feature store declares %u record(s), more than its %llu byte(s) "
        "can hold: %s",
        count, static_cast<unsigned long long>(file_size), path.c_str()));
  }
  std::vector<ImageFeatures> bank;
  bank.reserve(count);
  std::string payload;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t payload_size = 0;
    if (!read_pod(&payload_size) || payload_size > kMaxRecordBytes) {
      return Status::IoError(
          StrFormat("bad record size at record %u: %s", i, path.c_str()));
    }
    // Reject a declared length larger than what the file can still hold
    // BEFORE allocating: a corrupt 4-byte length field must not trigger a
    // multi-hundred-megabyte resize just to discover truncation on read.
    const std::uint64_t offset = static_cast<std::uint64_t>(in.tellg());
    if (offset > file_size ||
        std::uint64_t{payload_size} + sizeof(std::uint64_t) >
            file_size - offset) {
      return Status::IoError(StrFormat(
          "record %u declares %u payload byte(s) but only %llu remain: %s",
          i, payload_size,
          static_cast<unsigned long long>(
              file_size > offset ? file_size - offset : 0),
          path.c_str()));
    }
    payload.resize(payload_size);
    in.read(payload.data(), static_cast<std::streamsize>(payload_size));
    std::uint64_t checksum = 0;
    if (in.gcount() != static_cast<std::streamsize>(payload_size) ||
        !read_pod(&checksum)) {
      return Status::IoError(
          StrFormat("truncated feature store at record %u: %s", i,
                    path.c_str()));
    }
    if (FaultFires(FaultPoint::kTruncatedFile)) {
      return Status::IoError(
          StrFormat("injected truncation at record %u: %s", i, path.c_str()));
    }
    if (Fnv1a(payload.data(), payload.size()) != checksum) {
      return Status::IoError(
          StrFormat("checksum mismatch at record %u: %s", i, path.c_str()));
    }
    ImageFeatures features;
    SNOR_RETURN_NOT_OK(DecodeFeatures(payload, &features));
    total_bytes += sizeof(payload_size) + payload_size + sizeof(checksum);
    bank.push_back(std::move(features));
  }
  bytes_read.Increment(total_bytes);
  return bank;
}

Result<std::vector<ImageFeatures>> LoadOrComputeFeatures(
    const std::string& path, const Dataset& dataset,
    const FeatureOptions& options) {
  return LoadOrComputeFeatures(
      path, [&dataset]() -> const Dataset& { return dataset; }, options);
}

Result<std::vector<ImageFeatures>> LoadOrComputeFeatures(
    const std::string& path, const DatasetProvider& dataset,
    const FeatureOptions& options) {
  static obs::Counter& hits =
      obs::MetricsRegistry::Global().counter("serve.store.hit");
  static obs::Counter& misses =
      obs::MetricsRegistry::Global().counter("serve.store.miss");
  const std::uint64_t fingerprint = OptionsFingerprint(options);
  auto loaded = LoadFeatureBank(path, fingerprint);
  if (loaded.ok()) {
    hits.Increment();
    return loaded;
  }
  misses.Increment();
  std::vector<ImageFeatures> bank = ComputeFeatures(dataset(), options);
  const Status saved = SaveFeatureBank(path, fingerprint, bank);
  if (!saved.ok()) {
    // Non-fatal: the run proceeds cold; only the next run's warm-up is
    // lost.
    SNOR_LOG(Warning) << "feature store save failed: " << saved.ToString();
  }
  return bank;
}

}  // namespace snor::serve

#include "core/gallery_io.h"

#include <cstring>
#include <fstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace snor {
namespace {

constexpr char kMagic[8] = {'S', 'N', 'O', 'R', 'G', '0', '0', '1'};

/// Smallest entry on disk: label, model id, valid flag, Hu moments, bin
/// count and a one-bin histogram. Bounds the entry count a file of a
/// given size can hold.
constexpr std::uint64_t kMinEntryBytes =
    2 * sizeof(std::int32_t) + sizeof(std::uint8_t) + sizeof(HuMoments) +
    sizeof(std::int32_t) + sizeof(double);

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveFeatures(const std::vector<ImageFeatures>& features,
                    const std::string& path) {
  SNOR_TRACE_SPAN("core.gallery.save");
  return WriteFileAtomically(path, [&features](std::ostream& out) {
    out.write(kMagic, sizeof(kMagic));
    WritePod(out, static_cast<std::uint32_t>(features.size()));
    for (const auto& f : features) {
      WritePod(out, static_cast<std::int32_t>(ClassIndex(f.label)));
      WritePod(out, static_cast<std::int32_t>(f.model_id));
      WritePod(out, static_cast<std::uint8_t>(f.valid ? 1 : 0));
      for (double h : f.hu) WritePod(out, h);
      WritePod(out,
               static_cast<std::int32_t>(f.histogram.bins_per_channel()));
      const auto& bins = f.histogram.bins();
      out.write(reinterpret_cast<const char*>(bins.data()),
                static_cast<std::streamsize>(bins.size() * sizeof(double)));
    }
  });
}

Result<std::vector<ImageFeatures>> LoadFeatures(const std::string& path) {
  SNOR_TRACE_SPAN("core.gallery.load");
  static obs::Histogram& load_latency_us =
      obs::MetricsRegistry::Global().histogram("core.gallery.load_latency_us");
  const obs::ScopedLatencyUs latency(load_latency_us);
  static obs::Counter& entries_counter =
      obs::MetricsRegistry::Global().counter("core.gallery.entries_loaded");
  SNOR_RETURN_NOT_OK(
      InjectFault(FaultPoint::kIoRead, "LoadFeatures " + path));
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  auto bytes_left = [&]() -> std::uint64_t {
    const auto pos = static_cast<std::uint64_t>(in.tellg());
    return pos < file_size ? file_size - pos : 0;
  };
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("bad gallery-file magic: " + path);
  }
  std::uint32_t count = 0;
  if (!ReadPod(in, &count)) return Status::IoError("truncated header");
  // Bound the count by what the file can hold before reserving for it.
  if (count > bytes_left() / kMinEntryBytes) {
    return Status::IoError(StrFormat(
        "gallery declares %u entries, more than its %llu byte(s) can hold: "
        "%s",
        count, static_cast<unsigned long long>(file_size), path.c_str()));
  }

  std::vector<ImageFeatures> features;
  features.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ImageFeatures f;
    std::int32_t label = 0;
    std::int32_t model_id = 0;
    std::uint8_t valid = 0;
    if (!ReadPod(in, &label) || !ReadPod(in, &model_id) ||
        !ReadPod(in, &valid)) {
      return Status::IoError("truncated gallery entry");
    }
    if (label < 0 || label >= kNumClasses) {
      return Status::IoError(StrFormat("bad class index %d", label));
    }
    f.label = ClassFromIndex(label);
    f.model_id = model_id;
    f.valid = valid != 0;
    for (double& h : f.hu) {
      if (!ReadPod(in, &h)) return Status::IoError("truncated Hu moments");
    }
    std::int32_t bins_per_channel = 0;
    if (!ReadPod(in, &bins_per_channel) || bins_per_channel <= 0 ||
        bins_per_channel > 256) {
      return Status::IoError("bad histogram bin count");
    }
    const auto side = static_cast<std::uint64_t>(bins_per_channel);
    if (side * side * side * sizeof(double) > bytes_left()) {
      return Status::IoError("truncated histogram payload");
    }
    f.histogram = ColorHistogram(bins_per_channel);
    auto& bins = f.histogram.bins();
    in.read(reinterpret_cast<char*>(bins.data()),
            static_cast<std::streamsize>(bins.size() * sizeof(double)));
    if (!in) return Status::IoError("truncated histogram payload");
    if (FaultFires(FaultPoint::kTruncatedFile)) {
      return Status::IoError(
          StrFormat("injected truncation after entry %u: %s", i,
                    path.c_str()));
    }
    features.push_back(std::move(f));
  }
  entries_counter.Increment(features.size());
  return features;
}

}  // namespace snor

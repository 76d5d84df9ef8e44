// Command-line classifier: builds (or loads) a feature-store gallery
// (serve/feature_store) and classifies PPM images from disk — the
// deployment shape a robot integration would use (no re-rendering, no
// re-processing the gallery). A gallery written under other extraction
// options is refused with InvalidArgument.
//
// Usage:
//   classify_cli --build-gallery <gallery.fst>
//   classify_cli --gallery <gallery.fst> [--black-background] img.ppm...
//
// With no arguments it runs a self-contained demo: builds the gallery,
// saves it, exports a probe image, and classifies it.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "data/renderer.h"
#include "img/color.h"
#include "img/io_ppm.h"
#include "serve/feature_store.h"
#include "util/retry.h"

namespace snor {
namespace {

/// The context the gallery is rendered and extracted from (lazy: building
/// one costs nothing until its features are asked for).
ExperimentContext GalleryContext() {
  ExperimentConfig config;
  config.nyu_fraction = 0.01;
  return ExperimentContext(config);
}

/// Fingerprint of the options the SNS1 gallery features are extracted
/// with; a store written under any other options does not load.
std::uint64_t GalleryFingerprint() {
  return serve::OptionsFingerprint(GalleryContext().FeatureOptionsFor(true));
}

int BuildGallery(const std::string& path) {
  ExperimentContext context = GalleryContext();
  const Status status = serve::SaveFeatureBank(path, GalleryFingerprint(),
                                               context.Sns1Features());
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("gallery (%zu views) written to %s\n",
              context.Sns1Features().size(), path.c_str());
  return 0;
}

int ClassifyFiles(const std::string& gallery_path,
                  const std::vector<std::string>& files,
                  bool black_background) {
  // Gallery load is the one retryable stage of this tool: a deployed
  // robot reads it from flash or network storage, so transient IO errors
  // get three attempts with backoff before giving up.
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 2.0;
  const std::uint64_t fingerprint = GalleryFingerprint();
  auto gallery = RetryWithBackoff(retry, [&gallery_path, fingerprint] {
    return serve::LoadFeatureBank(gallery_path, fingerprint);
  });
  if (!gallery.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 gallery.status().ToString().c_str());
    return 1;
  }
  HybridClassifier classifier(gallery.MoveValue(), ShapeMatchMethod::kI3,
                              HistCompareMethod::kHellinger, 0.3, 0.7,
                              HybridStrategy::kWeightedSum);
  FeatureOptions fo;
  fo.preprocess.white_background = !black_background;

  int failures = 0;
  for (const auto& file : files) {
    auto image = ReadPnm(file);
    if (!image.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   image.status().ToString().c_str());
      ++failures;
      continue;
    }
    ImageU8 rgb = image->channels() == 3 ? image.MoveValue()
                                         : GrayToRgb(image.value());
    Dataset probe;
    probe.items.push_back(LabeledImage{std::move(rgb),
                                       ObjectClass::kChair, 0, 0});
    const auto features = ComputeFeatures(probe, fo);
    if (!features[0].valid) {
      std::printf("%s: no object found\n", file.c_str());
      continue;
    }
    const ObjectClass label = classifier.Classify(features[0]);
    std::printf("%s: %s\n", file.c_str(),
                std::string(ObjectClassName(label)).c_str());
  }
  return failures == 0 ? 0 : 1;
}

int Demo() {
  const std::string gallery_path = "/tmp/snor_gallery.fst";
  const std::string probe_path = "/tmp/snor_probe.ppm";
  if (BuildGallery(gallery_path) != 0) return 1;

  RenderOptions ro;
  ro.white_background = false;
  ro.view_angle_deg = 10.0;
  ro.noise_stddev = 7.0;
  ro.nuisance_seed = 3;
  const ImageU8 probe = RenderObjectView(ObjectClass::kChair, 8, ro);
  if (!WritePnm(probe, probe_path).ok()) return 1;
  std::printf("probe image (ground truth: Chair) -> %s\n",
              probe_path.c_str());
  return ClassifyFiles(gallery_path, {probe_path},
                       /*black_background=*/true);
}

}  // namespace
}  // namespace snor

int main(int argc, char** argv) {
  using namespace snor;
  if (argc == 1) return Demo();

  std::string gallery_path;
  bool build = false;
  bool black_background = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--build-gallery") == 0 && i + 1 < argc) {
      build = true;
      gallery_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gallery") == 0 && i + 1 < argc) {
      gallery_path = argv[++i];
    } else if (std::strcmp(argv[i], "--black-background") == 0) {
      black_background = true;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (gallery_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --build-gallery out.fst | --gallery g.fst "
                 "[--black-background] img.ppm...\n",
                 argv[0]);
    return 2;
  }
  if (build) return BuildGallery(gallery_path);
  return ClassifyFiles(gallery_path, files, black_background);
}

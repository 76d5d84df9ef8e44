#include "img/threshold.h"

#include <array>

#include "img/color.h"

namespace snor {

ImageU8 Threshold(const ImageU8& gray, std::uint8_t thresh,
                  std::uint8_t maxval, ThresholdMode mode) {
  SNOR_CHECK_EQ(gray.channels(), 1);
  ImageU8 out(gray.width(), gray.height(), 1);
  const std::uint8_t above =
      mode == ThresholdMode::kBinary ? maxval : std::uint8_t{0};
  const std::uint8_t below =
      mode == ThresholdMode::kBinary ? std::uint8_t{0} : maxval;
  const std::uint8_t* in = gray.data();
  std::uint8_t* dst = out.data();
  for (std::size_t i = 0; i < gray.size(); ++i) {
    dst[i] = in[i] > thresh ? above : below;
  }
  return out;
}

ImageU8 ThresholdRgb(const ImageU8& rgb, std::uint8_t thresh,
                     std::uint8_t maxval, ThresholdMode mode) {
  SNOR_CHECK_EQ(rgb.channels(), 3);
  ImageU8 out(rgb.width(), rgb.height(), 1);
  const std::uint8_t above =
      mode == ThresholdMode::kBinary ? maxval : std::uint8_t{0};
  const std::uint8_t below =
      mode == ThresholdMode::kBinary ? std::uint8_t{0} : maxval;
  // Rounding sends the luma above `thresh` exactly when 1000 x the luma
  // exceeds 1000 thresh + 500; at 255 the bound is out of reach. A row
  // with a sum equal to the bound is revisited to settle those pixels, so
  // the first loop stays branch-free.
  const int bound = 1000 * thresh + 500;
  const int width = rgb.width();
  for (int y = 0; y < rgb.height(); ++y) {
    const std::uint8_t* in = rgb.Row(y);
    std::uint8_t* dst = out.Row(y);
    bool tie = false;
    for (int x = 0; x < width; ++x) {
      const int s = 299 * in[3 * x] + 587 * in[3 * x + 1] + 114 * in[3 * x + 2];
      dst[x] = s > bound ? above : below;
      tie |= s == bound;
    }
    if (!tie) continue;
    for (int x = 0; x < width; ++x) {
      const std::uint8_t* px = in + 3 * x;
      const int s = 299 * px[0] + 587 * px[1] + 114 * px[2];
      if (s == bound && Bt601Gray(px[0], px[1], px[2]) > thresh) {
        dst[x] = above;
      }
    }
  }
  return out;
}

std::uint8_t OtsuThreshold(const ImageU8& gray) {
  SNOR_CHECK_EQ(gray.channels(), 1);
  SNOR_CHECK_GT(gray.size(), 0u);
  std::array<std::size_t, 256> hist{};
  const std::uint8_t* in = gray.data();
  for (std::size_t i = 0; i < gray.size(); ++i) ++hist[in[i]];

  const double total = static_cast<double>(gray.size());
  double sum_all = 0.0;
  for (int v = 0; v < 256; ++v) sum_all += v * static_cast<double>(hist[v]);

  double sum_bg = 0.0;
  double weight_bg = 0.0;
  double best_var = -1.0;
  int best_thresh = 0;
  for (int t = 0; t < 256; ++t) {
    weight_bg += static_cast<double>(hist[t]);
    if (weight_bg == 0) continue;
    const double weight_fg = total - weight_bg;
    if (weight_fg == 0) break;
    sum_bg += t * static_cast<double>(hist[t]);
    const double mean_bg = sum_bg / weight_bg;
    const double mean_fg = (sum_all - sum_bg) / weight_fg;
    const double between =
        weight_bg * weight_fg * (mean_bg - mean_fg) * (mean_bg - mean_fg);
    if (between > best_var) {
      best_var = between;
      best_thresh = t;
    }
  }
  return static_cast<std::uint8_t>(best_thresh);
}

ImageU8 ThresholdOtsu(const ImageU8& gray, ThresholdMode mode,
                      std::uint8_t maxval) {
  return Threshold(gray, OtsuThreshold(gray), maxval, mode);
}

}  // namespace snor

#ifndef SNOR_IMG_COLOR_H_
#define SNOR_IMG_COLOR_H_

#include <cstdint>

#include "img/image.h"

namespace snor {

/// \brief 8-bit RGB colour triple used by the rasterizer and palettes.
struct Rgb {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  bool operator==(const Rgb&) const = default;
};

/// Converts a 3-channel RGB image to single-channel grayscale using the
/// ITU-R BT.601 weights OpenCV uses (0.299 R + 0.587 G + 0.114 B), each
/// pixel as `Bt601Gray` rounds it.
ImageU8 RgbToGray(const ImageU8& rgb);

/// Gray level of one pixel: 0.299 R + 0.587 G + 0.114 B rounded half away
/// from zero. Exact in integers, except that a sum ending in exactly one
/// half is rounded as its double-precision evaluation rounds it (which
/// goes either way), so the value never differs from the double formula.
std::uint8_t Bt601Gray(std::uint8_t r, std::uint8_t g, std::uint8_t b);

/// Expands a single-channel image to 3 identical RGB channels.
ImageU8 GrayToRgb(const ImageU8& gray);

/// Converts RGB to HSV with all three channels scaled to [0, 255]
/// (hue spans the full byte range, unlike OpenCV's half-range H).
/// Hue is largely invariant to illumination scaling, which makes
/// HSV histograms an illumination-robustness ablation of the paper's
/// RGB histograms.
ImageU8 RgbToHsv(const ImageU8& rgb);

/// Linearly interpolates between two colours (t in [0, 1]).
Rgb LerpRgb(const Rgb& a, const Rgb& b, double t);

/// Scales a colour's brightness by `factor`, clamping to [0, 255].
Rgb ScaleRgb(const Rgb& c, double factor);

}  // namespace snor

#endif  // SNOR_IMG_COLOR_H_

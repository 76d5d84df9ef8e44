#include "img/color.h"

#include <algorithm>
#include <cmath>

namespace snor {

std::uint8_t Bt601Gray(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  // s = 1000 x the luma; its rounding is (s + 500) / 1000 unless s ends in
  // exactly 500. The double sum is within 1e-12 of s / 1000, so it rounds
  // the same way everywhere else.
  const int s = 299 * r + 587 * g + 114 * b;
  const int rounded = (s + 500) / 1000;
  if (rounded * 1000 != s + 500) return static_cast<std::uint8_t>(rounded);
  const double v = 0.299 * r + 0.587 * g + 0.114 * b;
  return static_cast<std::uint8_t>(std::lround(v));
}

ImageU8 RgbToGray(const ImageU8& rgb) {
  SNOR_CHECK_EQ(rgb.channels(), 3);
  ImageU8 gray(rgb.width(), rgb.height(), 1);
  for (int y = 0; y < rgb.height(); ++y) {
    const std::uint8_t* in = rgb.Row(y);
    std::uint8_t* out = gray.Row(y);
    for (int x = 0; x < rgb.width(); ++x) {
      out[x] = Bt601Gray(in[3 * x + 0], in[3 * x + 1], in[3 * x + 2]);
    }
  }
  return gray;
}

ImageU8 GrayToRgb(const ImageU8& gray) {
  SNOR_CHECK_EQ(gray.channels(), 1);
  ImageU8 rgb(gray.width(), gray.height(), 3);
  for (int y = 0; y < gray.height(); ++y) {
    const std::uint8_t* in = gray.Row(y);
    std::uint8_t* out = rgb.Row(y);
    for (int x = 0; x < gray.width(); ++x) {
      out[3 * x + 0] = in[x];
      out[3 * x + 1] = in[x];
      out[3 * x + 2] = in[x];
    }
  }
  return rgb;
}

namespace {
std::uint8_t ClampU8(double v) {
  return static_cast<std::uint8_t>(std::lround(std::clamp(v, 0.0, 255.0)));
}
}  // namespace

ImageU8 RgbToHsv(const ImageU8& rgb) {
  SNOR_CHECK_EQ(rgb.channels(), 3);
  ImageU8 hsv(rgb.width(), rgb.height(), 3);
  for (int y = 0; y < rgb.height(); ++y) {
    const std::uint8_t* in = rgb.Row(y);
    std::uint8_t* out = hsv.Row(y);
    for (int x = 0; x < rgb.width(); ++x) {
      const double r = in[3 * x + 0] / 255.0;
      const double g = in[3 * x + 1] / 255.0;
      const double b = in[3 * x + 2] / 255.0;
      const double max_v = std::max({r, g, b});
      const double min_v = std::min({r, g, b});
      const double delta = max_v - min_v;

      double h = 0.0;
      if (delta > 1e-12) {
        if (max_v == r) {
          h = 60.0 * std::fmod((g - b) / delta, 6.0);
        } else if (max_v == g) {
          h = 60.0 * ((b - r) / delta + 2.0);
        } else {
          h = 60.0 * ((r - g) / delta + 4.0);
        }
        if (h < 0) h += 360.0;
      }
      const double s = max_v <= 1e-12 ? 0.0 : delta / max_v;
      out[3 * x + 0] = ClampU8(h / 360.0 * 255.0);
      out[3 * x + 1] = ClampU8(s * 255.0);
      out[3 * x + 2] = ClampU8(max_v * 255.0);
    }
  }
  return hsv;
}

Rgb LerpRgb(const Rgb& a, const Rgb& b, double t) {
  return Rgb{ClampU8(a.r + (b.r - a.r) * t), ClampU8(a.g + (b.g - a.g) * t),
             ClampU8(a.b + (b.b - a.b) * t)};
}

Rgb ScaleRgb(const Rgb& c, double factor) {
  return Rgb{ClampU8(c.r * factor), ClampU8(c.g * factor),
             ClampU8(c.b * factor)};
}

ImageU8 ToU8Clamped(const ImageF& src) {
  ImageU8 dst(src.width(), src.height(), src.channels());
  const float* in = src.data();
  std::uint8_t* out = dst.data();
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = ClampU8(in[i]);
  }
  return dst;
}

}  // namespace snor

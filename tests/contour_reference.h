#ifndef SNOR_TESTS_CONTOUR_REFERENCE_H_
#define SNOR_TESTS_CONTOUR_REFERENCE_H_

// Test-only reference for geometry/contour: the straightforward labeller
// and tracer that `FindContours` must agree with bit for bit. Components
// are labelled by BFS into a label image, each is traced over that label
// image from its first pixel in raster order, and the contours are
// stably sorted by enclosed area (descending), so equal areas keep the
// raster order of their start pixels.

#include <algorithm>
#include <queue>
#include <vector>

#include "geometry/contour.h"
#include "img/image.h"

namespace snor::reference {

// 8-neighbourhood directions, clockwise starting East (image coordinates,
// y grows downward).
inline constexpr int kDx[8] = {1, 1, 0, -1, -1, -1, 0, 1};
inline constexpr int kDy[8] = {0, 1, 1, 1, 0, -1, -1, -1};

/// Labels 8-connected foreground components by BFS; returns the label
/// image (0 = background, 1..n = components in raster order of their
/// first pixel) and sets `num_components`.
inline Image<int> LabelComponents(const ImageU8& binary, int* num_components) {
  Image<int> labels(binary.width(), binary.height(), 1, 0);
  int next_label = 0;
  std::queue<Point> frontier;
  for (int y = 0; y < binary.height(); ++y) {
    for (int x = 0; x < binary.width(); ++x) {
      if (binary.at(y, x) == 0 || labels.at(y, x) != 0) continue;
      ++next_label;
      labels.at(y, x) = next_label;
      frontier.push({x, y});
      while (!frontier.empty()) {
        const Point p = frontier.front();
        frontier.pop();
        for (int d = 0; d < 8; ++d) {
          const int nx = p.x + kDx[d];
          const int ny = p.y + kDy[d];
          if (!binary.InBounds(nx, ny)) continue;
          if (binary.at(ny, nx) == 0 || labels.at(ny, nx) != 0) continue;
          labels.at(ny, nx) = next_label;
          frontier.push({nx, ny});
        }
      }
    }
  }
  *num_components = next_label;
  return labels;
}

inline int DeltaToDir(int dx, int dy) {
  for (int d = 0; d < 8; ++d) {
    if (kDx[d] == dx && kDy[d] == dy) return d;
  }
  return -1;
}

/// Moore-neighbour trace of the outer boundary of component `label` over
/// the label image, from its topmost-leftmost pixel `start`.
inline Contour TraceBoundary(const Image<int>& labels, int label, Point start) {
  auto is_fg = [&](int x, int y) {
    return labels.InBounds(x, y) && labels.at(y, x) == label;
  };
  Contour contour;
  int backtrack_dir = 4;  // The pixel west of `start` is background.
  int first_dir = -1;
  Point cur = start;
  const long cap =
      4L * (static_cast<long>(labels.width()) + labels.height() + 4) * 8;
  for (long iter = 0; iter < cap; ++iter) {
    int found_dir = -1;
    int prev_checked = backtrack_dir;
    for (int k = 1; k <= 8; ++k) {
      const int d = (backtrack_dir + k) % 8;
      if (is_fg(cur.x + kDx[d], cur.y + kDy[d])) {
        found_dir = d;
        break;
      }
      prev_checked = d;
    }
    if (found_dir < 0) return Contour{start};  // Isolated pixel.
    // Closed when back at the start and about to repeat the first move.
    if (cur == start) {
      if (found_dir == first_dir) break;
      if (first_dir < 0) first_dir = found_dir;
    }
    contour.push_back(cur);
    const Point b{cur.x + kDx[prev_checked], cur.y + kDy[prev_checked]};
    cur = Point{cur.x + kDx[found_dir], cur.y + kDy[found_dir]};
    backtrack_dir = DeltaToDir(b.x - cur.x, b.y - cur.y);
  }
  return contour;
}

/// What `FindContours(binary, min_pixels)` returns.
inline std::vector<Contour> FindContours(const ImageU8& binary,
                                         int min_pixels) {
  int n = 0;
  const Image<int> labels = reference::LabelComponents(binary, &n);
  std::vector<int> count(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Point> first(static_cast<std::size_t>(n) + 1, Point{-1, -1});
  for (int y = 0; y < labels.height(); ++y) {
    for (int x = 0; x < labels.width(); ++x) {
      const auto l = static_cast<std::size_t>(labels.at(y, x));
      if (l == 0) continue;
      if (first[l].x < 0) first[l] = Point{x, y};
      ++count[l];
    }
  }
  std::vector<Contour> contours;
  for (int l = 1; l <= n; ++l) {
    if (count[static_cast<std::size_t>(l)] < min_pixels) continue;
    const Point start = first[static_cast<std::size_t>(l)];
    contours.push_back(reference::TraceBoundary(labels, l, start));
  }
  std::stable_sort(contours.begin(), contours.end(),
                   [](const Contour& a, const Contour& b) {
                     return ContourArea(a) > ContourArea(b);
                   });
  return contours;
}

}  // namespace snor::reference

#endif  // SNOR_TESTS_CONTOUR_REFERENCE_H_

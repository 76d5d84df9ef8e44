#include "geometry/contour.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

namespace snor {
namespace {

// 8-neighbourhood directions, clockwise starting East (image coordinates,
// y grows downward).
constexpr int kDx[8] = {1, 1, 0, -1, -1, -1, 0, 1};
constexpr int kDy[8] = {0, 1, 1, 1, 0, -1, -1, -1};

// First x in [x, end) with (in[x] == 0) == kZero, else `end`. Steps
// eight bytes at a time while a word holds no such byte.
template <bool kZero>
int FindByte(const std::uint8_t* in, int x, int end) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  for (; x + 8 <= end; x += 8) {
    std::uint64_t v;
    std::memcpy(&v, in + x, sizeof v);
    // The high bit of each non-zero byte, with no carry between bytes.
    const std::uint64_t nonzero = ((v & kLow7) + kLow7) | v;
    const std::uint64_t hits = (kZero ? ~nonzero : nonzero) & ~kLow7;
    if (hits == 0) continue;
    if constexpr (std::endian::native == std::endian::little) {
      return x + std::countr_zero(hits) / 8;
    }
    break;
  }
  while (x < end && (in[x] == 0) != kZero) ++x;
  return x;
}

// An 8-connected foreground component: its first pixel in raster order
// and its size.
struct Component {
  Point first;
  int pixels = 0;
};

// Labels the 8-connected foreground components of `binary` in one raster
// pass: each row's runs of foreground pixels join every run of the row
// above that they touch (overlap or meet diagonally) by union-find. A
// root is always the smaller label, and labels are handed out in raster
// order, so a component's root is the label created at its first pixel.
// Returns the components in raster order of their first pixel.
std::vector<Component> LabelComponents(const ImageU8& binary) {
  struct Run {
    int x0;  // First pixel.
    int x1;  // One past the last pixel.
    int label;
  };
  std::vector<int> parent;
  std::vector<Component> labels;  // Indexed by label.
  auto find = [&](int l) {
    while (parent[static_cast<std::size_t>(l)] != l) {
      int& up = parent[static_cast<std::size_t>(l)];
      up = parent[static_cast<std::size_t>(up)];  // Path halving.
      l = up;
    }
    return l;
  };

  const int width = binary.width();
  std::vector<Run> above;
  std::vector<Run> row;
  for (int y = 0; y < binary.height(); ++y) {
    const std::uint8_t* in = binary.Row(y);
    row.clear();
    std::size_t next = 0;  // First run above that can touch the next run.
    for (int x = FindByte<false>(in, 0, width); x < width;
         x = FindByte<false>(in, x, width)) {
      const int x0 = x;
      x = FindByte<true>(in, x, width);
      // A run above touches [x0, x) when it overlaps [x0 - 1, x].
      while (next < above.size() && above[next].x1 < x0) ++next;
      int label = -1;
      for (std::size_t k = next; k < above.size() && above[k].x0 <= x; ++k) {
        const int other = find(above[k].label);
        if (label < 0) {
          label = other;
        } else if (other != label) {
          const int root = std::min(label, other);
          parent[static_cast<std::size_t>(std::max(label, other))] = root;
          label = root;
        }
      }
      if (label < 0) {
        label = static_cast<int>(parent.size());
        parent.push_back(label);
        labels.push_back(Component{Point{x0, y}, 0});
      }
      labels[static_cast<std::size_t>(label)].pixels += x - x0;
      row.push_back(Run{x0, x, label});
    }
    std::swap(above, row);
  }

  // Fold the pixels counted under each merged label into its root.
  std::vector<Component> components;
  for (std::size_t l = 0; l < labels.size(); ++l) {
    const auto root = static_cast<std::size_t>(find(static_cast<int>(l)));
    if (root != l) labels[root].pixels += labels[l].pixels;
  }
  for (std::size_t l = 0; l < labels.size(); ++l) {
    if (parent[l] == static_cast<int>(l)) components.push_back(labels[l]);
  }
  return components;
}

// Moore-neighbour tracing of the outer boundary of the component whose
// first pixel in raster order is `start`. Every foreground 8-neighbour of
// a component pixel belongs to the same component, so the trace reads
// the binary mask itself.
Contour TraceBoundary(const ImageU8& binary, Point start) {
  const int width = binary.width();
  const int height = binary.height();
  const std::uint8_t* pixels = binary.data();
  auto is_fg = [&](int x, int y) {
    return static_cast<unsigned>(x) < static_cast<unsigned>(width) &&
           static_cast<unsigned>(y) < static_cast<unsigned>(height) &&
           pixels[static_cast<std::size_t>(y) * width + x] != 0;
  };

  // Direction from the current pixel toward the background pixel the
  // search starts after; west of the first pixel is background.
  int backtrack_dir = 4;
  int first_dir = -1;
  Point cur = start;
  Contour contour;

  // A safety net only: the stopping rule below ends every trace once it
  // has gone round the border.
  const long cap = 4L * (static_cast<long>(width) + height + 4) * 8;
  for (long iter = 0; iter < cap; ++iter) {
    int found_dir = -1;
    for (int k = 1; k <= 8; ++k) {
      const int d = (backtrack_dir + k) & 7;
      if (is_fg(cur.x + kDx[d], cur.y + kDy[d])) {
        found_dir = d;
        break;
      }
    }
    if (found_dir < 0) return Contour{start};  // Isolated pixel.
    // Suzuki-Abe (OpenCV) stopping rule: back at the start and about to
    // repeat the first move, every later step would repeat the trace.
    // Re-entering the start from the west is not enough: a start pixel
    // whose component continues only to the south-east is re-entered
    // from another side.
    if (cur == start) {
      if (found_dir == first_dir) break;
      if (first_dir < 0) first_dir = found_dir;
    }
    contour.push_back(cur);
    cur = Point{cur.x + kDx[found_dir], cur.y + kDy[found_dir]};
    // The new backtrack is the (background) neighbour examined just before
    // the foreground one, seen from the new pixel: two steps clockwise
    // past the reverse of an axis move, three past a diagonal one.
    backtrack_dir = (found_dir + 6 - (found_dir & 1)) & 7;
  }
  return contour;
}

// Traces every component of at least `min_pixels` pixels, in raster order
// of their first pixels, and hands each contour and its area to `visit`.
template <typename Visit>
void TraceComponents(const ImageU8& binary, int min_pixels, Visit visit) {
  SNOR_CHECK_EQ(binary.channels(), 1);
  for (const Component& c : LabelComponents(binary)) {
    if (c.pixels < min_pixels) continue;
    Contour contour = TraceBoundary(binary, c.first);
    const double area = ContourArea(contour);
    visit(std::move(contour), area);
  }
}

}  // namespace

std::vector<Contour> FindContours(const ImageU8& binary, int min_pixels) {
  std::vector<std::pair<double, Contour>> traced;
  TraceComponents(binary, min_pixels, [&](Contour contour, double area) {
    traced.emplace_back(area, std::move(contour));
  });
  std::stable_sort(
      traced.begin(), traced.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Contour> contours;
  contours.reserve(traced.size());
  for (auto& t : traced) contours.push_back(std::move(t.second));
  return contours;
}

Contour FindLargestContour(const ImageU8& binary, int min_pixels) {
  Contour largest;
  double largest_area = -1.0;
  TraceComponents(binary, min_pixels, [&](Contour contour, double area) {
    if (area > largest_area) {
      largest = std::move(contour);
      largest_area = area;
    }
  });
  return largest;
}

double ContourArea(const Contour& contour) {
  if (contour.size() < 3) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < contour.size(); ++i) {
    const Point& a = contour[i];
    const Point& b = contour[(i + 1) % contour.size()];
    acc += static_cast<double>(a.x) * b.y - static_cast<double>(b.x) * a.y;
  }
  return std::abs(acc) / 2.0;
}

double ContourPerimeter(const Contour& contour) {
  if (contour.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < contour.size(); ++i) {
    const Point& a = contour[i];
    const Point& b = contour[(i + 1) % contour.size()];
    acc += std::hypot(static_cast<double>(b.x - a.x),
                      static_cast<double>(b.y - a.y));
  }
  return acc;
}

Rect BoundingRect(const Contour& contour) {
  if (contour.empty()) return Rect{};
  int min_x = contour[0].x;
  int max_x = contour[0].x;
  int min_y = contour[0].y;
  int max_y = contour[0].y;
  for (const Point& p : contour) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  return Rect{min_x, min_y, max_x - min_x + 1, max_y - min_y + 1};
}

}  // namespace snor

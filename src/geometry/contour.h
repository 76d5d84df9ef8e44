#ifndef SNOR_GEOMETRY_CONTOUR_H_
#define SNOR_GEOMETRY_CONTOUR_H_

#include <vector>

#include "geometry/types.h"
#include "img/image.h"

namespace snor {

/// Finds the outer contours of all 8-connected foreground (non-zero)
/// components in a binary single-channel image, via Moore-neighbour
/// boundary tracing from each component's first pixel in raster order;
/// components smaller than `min_pixels` are skipped. Contours are sorted
/// by enclosed area (descending), and equal areas keep the raster order
/// of their start pixels.
std::vector<Contour> FindContours(const ImageU8& binary, int min_pixels = 1);

/// `FindContours(binary, min_pixels)[0]` without keeping the others: the
/// largest-area contour, the first in raster order among equal areas.
/// Empty when no component has `min_pixels` pixels.
Contour FindLargestContour(const ImageU8& binary, int min_pixels = 1);

/// Enclosed area of a closed contour by the shoelace formula (matches
/// OpenCV `contourArea` up to orientation sign, which we absorb with abs).
double ContourArea(const Contour& contour);

/// Perimeter (arc length) of the closed contour.
double ContourPerimeter(const Contour& contour);

/// Tight axis-aligned bounding rectangle of the contour points.
Rect BoundingRect(const Contour& contour);

}  // namespace snor

#endif  // SNOR_GEOMETRY_CONTOUR_H_

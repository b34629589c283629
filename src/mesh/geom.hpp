#pragma once

// Plain geometry helpers shared by the triangulator and the PUMG
// decomposition code. Everything that affects topological decisions goes
// through the robust predicates in predicates.hpp; the helpers here are
// used for construction (circumcenters, midpoints) and measurement only.

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "mesh/predicates.hpp"

namespace mrts::mesh {

inline double dist2(const Point2& a, const Point2& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

inline double dist(const Point2& a, const Point2& b) {
  return std::sqrt(dist2(a, b));
}

inline Point2 midpoint(const Point2& a, const Point2& b) {
  return {0.5 * (a.x + b.x), 0.5 * (a.y + b.y)};
}

/// Circumcenter of triangle abc; nullopt when (near-)degenerate.
inline std::optional<Point2> circumcenter(const Point2& a, const Point2& b,
                                          const Point2& c) {
  const double abx = b.x - a.x;
  const double aby = b.y - a.y;
  const double acx = c.x - a.x;
  const double acy = c.y - a.y;
  const double d = 2.0 * (abx * acy - aby * acx);
  if (d == 0.0 || !std::isfinite(d)) return std::nullopt;
  const double ab2 = abx * abx + aby * aby;
  const double ac2 = acx * acx + acy * acy;
  const double ux = (acy * ab2 - aby * ac2) / d;
  const double uy = (abx * ac2 - acx * ab2) / d;
  if (!std::isfinite(ux) || !std::isfinite(uy)) return std::nullopt;
  return Point2{a.x + ux, a.y + uy};
}

/// Squared circumradius, infinity for degenerate triangles.
inline double circumradius2(const Point2& a, const Point2& b,
                            const Point2& c) {
  const auto cc = circumcenter(a, b, c);
  if (!cc) return std::numeric_limits<double>::infinity();
  return dist2(*cc, a);
}

/// Smallest interior angle of triangle abc in degrees.
double min_angle_deg(const Point2& a, const Point2& b, const Point2& c);

/// Length of the shortest edge.
double shortest_edge(const Point2& a, const Point2& b, const Point2& c);

/// Length of the longest edge.
inline double longest_edge(const Point2& a, const Point2& b, const Point2& c) {
  return std::sqrt(std::max({dist2(a, b), dist2(b, c), dist2(c, a)}));
}

/// True when p lies strictly inside the diametral circle of segment (a, b),
/// i.e. p encroaches the subsegment (Ruppert's criterion). Points on the
/// circle do not encroach.
inline bool in_diametral_circle(const Point2& a, const Point2& b,
                                const Point2& p) {
  // Angle apb > 90 degrees <=> (a-p).(b-p) < 0.
  const double dot =
      (a.x - p.x) * (b.x - p.x) + (a.y - p.y) * (b.y - p.y);
  return dot < 0.0;
}

struct Rect {
  double xlo = 0.0, ylo = 0.0, xhi = 1.0, yhi = 1.0;

  [[nodiscard]] double width() const { return xhi - xlo; }
  [[nodiscard]] double height() const { return yhi - ylo; }
  [[nodiscard]] Point2 center() const {
    return {0.5 * (xlo + xhi), 0.5 * (ylo + yhi)};
  }
  [[nodiscard]] bool contains(const Point2& p) const {
    return p.x >= xlo && p.x <= xhi && p.y >= ylo && p.y <= yhi;
  }
  [[nodiscard]] bool contains_strict(const Point2& p) const {
    return p.x > xlo && p.x < xhi && p.y > ylo && p.y < yhi;
  }
  [[nodiscard]] Rect expanded(double margin) const {
    return {xlo - margin, ylo - margin, xhi + margin, yhi + margin};
  }
};

/// Clips segment (a, b) to the rectangle (Liang-Barsky). Returns the clipped
/// endpoints, or nullopt when the segment misses the rectangle entirely.
std::optional<std::pair<Point2, Point2>> clip_segment(const Point2& a,
                                                      const Point2& b,
                                                      const Rect& r);

}  // namespace mrts::mesh

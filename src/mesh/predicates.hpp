#pragma once

// Robust geometric predicates for 2D Delaunay triangulation, after
// Shewchuk's "Adaptive Precision Floating-Point Arithmetic and Fast Robust
// Geometric Predicates". Each predicate first evaluates a floating-point
// approximation with a forward error bound; only when the result is within
// the bound of zero does it fall back to an exact evaluation built on
// expansion arithmetic (error-free transformations). Unlike Shewchuk's
// four-stage adaptivity we go straight from the filtered estimate to the
// fully exact value — simpler, equally correct, and the fallback triggers
// only on nearly-degenerate inputs.
//
// The filters are inline, so the common case costs no call; the exact stage
// stays out of line in predicates.cpp. Both need strict IEEE semantics, so
// mrts_mesh and everything that links it compile with -ffp-contract=off: a
// fused multiply-add would change the filters' results and break the
// error-free transformations.

#include <cmath>

namespace mrts::mesh {

struct Point2 {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point2& a, const Point2& b) {
    return a.x == b.x && a.y == b.y;
  }
};

namespace detail {

constexpr double kEpsilon = 1.1102230246251565e-16;  // 2^-53

// Filter constants from Shewchuk's predicates.c.
constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEpsilon) * kEpsilon;
constexpr double kIccErrBoundA = (10.0 + 96.0 * kEpsilon) * kEpsilon;

/// The exact stages: the sign is exact, and each call counts one
/// predicate_exact_fallbacks().
double orient2d_exact(const Point2& pa, const Point2& pb, const Point2& pc);
double incircle_exact(const Point2& pa, const Point2& pb, const Point2& pc,
                      const Point2& pd);

}  // namespace detail

/// > 0 if a,b,c wind counterclockwise, < 0 clockwise, 0 collinear.
/// The sign is always exact; the magnitude approximates twice the signed
/// triangle area.
inline double orient2d(const Point2& pa, const Point2& pb, const Point2& pc) {
  const double detleft = (pa.x - pc.x) * (pb.y - pc.y);
  const double detright = (pa.y - pc.y) * (pb.x - pc.x);
  const double det = detleft - detright;

  double detsum;
  if (detleft > 0.0) {
    if (detright <= 0.0) return det;
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return det;
    detsum = -detleft - detright;
  } else {
    return det;
  }
  const double errbound = detail::kCcwErrBoundA * detsum;
  if (det >= errbound || -det >= errbound) return det;
  return detail::orient2d_exact(pa, pb, pc);
}

/// > 0 if d lies strictly inside the circumcircle of the CCW triangle
/// a,b,c; < 0 strictly outside; 0 on the circle. The sign is always exact.
inline double incircle(const Point2& pa, const Point2& pb, const Point2& pc,
                       const Point2& pd) {
  const double adx = pa.x - pd.x;
  const double bdx = pb.x - pd.x;
  const double cdx = pc.x - pd.x;
  const double ady = pa.y - pd.y;
  const double bdy = pb.y - pd.y;
  const double cdy = pc.y - pd.y;

  const double bdxcdy = bdx * cdy;
  const double cdxbdy = cdx * bdy;
  const double alift = adx * adx + ady * ady;

  const double cdxady = cdx * ady;
  const double adxcdy = adx * cdy;
  const double blift = bdx * bdx + bdy * bdy;

  const double adxbdy = adx * bdy;
  const double bdxady = bdx * ady;
  const double clift = cdx * cdx + cdy * cdy;

  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);

  const double permanent =
      (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * alift +
      (std::fabs(cdxady) + std::fabs(adxcdy)) * blift +
      (std::fabs(adxbdy) + std::fabs(bdxady)) * clift;
  const double errbound = detail::kIccErrBoundA * permanent;
  if (det > errbound || -det > errbound) return det;
  return detail::incircle_exact(pa, pb, pc, pd);
}

/// Number of times either predicate fell back to exact evaluation since
/// process start (diagnostic; relaxed atomic).
unsigned long long predicate_exact_fallbacks();

}  // namespace mrts::mesh

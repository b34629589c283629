#include "mesh/geom.hpp"

#include <algorithm>

namespace mrts::mesh {

double min_angle_deg(const Point2& a, const Point2& b, const Point2& c) {
  auto angle_at = [](const Point2& v, const Point2& p, const Point2& q) {
    const double ux = p.x - v.x, uy = p.y - v.y;
    const double vx = q.x - v.x, vy = q.y - v.y;
    const double nu = std::sqrt(ux * ux + uy * uy);
    const double nv = std::sqrt(vx * vx + vy * vy);
    if (nu == 0.0 || nv == 0.0) return 0.0;
    const double cosv = std::clamp((ux * vx + uy * vy) / (nu * nv), -1.0, 1.0);
    return std::acos(cosv) * 180.0 / 3.14159265358979323846;
  };
  return std::min({angle_at(a, b, c), angle_at(b, c, a), angle_at(c, a, b)});
}

double shortest_edge(const Point2& a, const Point2& b, const Point2& c) {
  return std::sqrt(std::min({dist2(a, b), dist2(b, c), dist2(c, a)}));
}

std::optional<std::pair<Point2, Point2>> clip_segment(const Point2& a,
                                                      const Point2& b,
                                                      const Rect& r) {
  double t0 = 0.0, t1 = 1.0;
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double p[4] = {-dx, dx, -dy, dy};
  const double q[4] = {a.x - r.xlo, r.xhi - a.x, a.y - r.ylo, r.yhi - a.y};
  for (int i = 0; i < 4; ++i) {
    if (p[i] == 0.0) {
      if (q[i] < 0.0) return std::nullopt;  // parallel and outside
      continue;
    }
    const double t = q[i] / p[i];
    if (p[i] < 0.0) {
      t0 = std::max(t0, t);
    } else {
      t1 = std::min(t1, t);
    }
    if (t0 > t1) return std::nullopt;
  }
  const Point2 pa = (t0 == 0.0) ? a : Point2{a.x + t0 * dx, a.y + t0 * dy};
  const Point2 pb = (t1 == 1.0) ? b : Point2{a.x + t1 * dx, a.y + t1 * dy};
  return std::pair{pa, pb};
}

}  // namespace mrts::mesh

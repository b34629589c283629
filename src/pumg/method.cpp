#include "pumg/method.hpp"

#include <algorithm>

#include "util/format.hpp"
#include "util/timer.hpp"

namespace mrts::pumg {

std::string MeshRunStats::summary() const {
  return util::format(
      "{} elements in {} cells, min angle {:.2f} deg ({} below goal), "
      "area {:.4f}, {} boundary splits, {} rounds, {:.3f}s",
      elements, cells, min_angle_deg, below_goal, total_area,
      boundary_splits_exchanged, rounds, wall_seconds);
}

MeshRunStats run_sequential(const MeshProblem& problem,
                            mesh::Triangulation* out) {
  util::WallTimer timer;
  mesh::Triangulation tri = mesh::refine_pslg(problem.domain, problem.refine);
  MeshRunStats stats;
  stats.quality_goal_deg = problem.refine.min_angle_deg;
  accumulate_stats(stats, cell_stats(tri, stats.quality_goal_deg));
  stats.wall_seconds = timer.seconds();
  if (out != nullptr) *out = std::move(tri);
  return stats;
}

CellStats cell_stats(const mesh::Triangulation& tri, double goal_deg) {
  return {.elements = tri.inside_triangles(),
          .vertices = tri.vertex_count(),
          .quality = tri.inside_quality(goal_deg)};
}

void accumulate_stats(MeshRunStats& stats, const CellStats& cell) {
  stats.elements += cell.elements;
  stats.vertices += cell.vertices;
  stats.total_area += cell.quality.area;
  if (cell.elements > 0) {
    stats.min_angle_deg =
        std::min(stats.min_angle_deg, cell.quality.min_angle_deg);
  }
  stats.below_goal += cell.quality.below_goal;
  ++stats.cells;
}

void accumulate_stats(MeshRunStats& stats, const Subdomain& sub) {
  accumulate_stats(stats, cell_stats(sub.tri(), stats.quality_goal_deg));
}

std::string check_conformity(const Decomposition& decomp,
                             const std::vector<Subdomain>& subs) {
  for (std::uint32_t i = 0; i < subs.size(); ++i) {
    for (int side = 0; side < 4; ++side) {
      for (std::uint32_t j : decomp.cells[i].neighbors[side]) {
        if (j < i) continue;  // each pair once
        const auto mine = subs[i].border_points(static_cast<Side>(side));
        const auto theirs =
            subs[j].border_points(opposite(static_cast<Side>(side)));
        // Compare only the overlap range (quadtree neighbours may cover a
        // sub-interval of this side).
        const mesh::Rect& ra = decomp.cells[i].rect;
        const mesh::Rect& rb = decomp.cells[j].rect;
        const bool vertical = side == kWest || side == kEast;
        const double lo = vertical ? std::max(ra.ylo, rb.ylo)
                                   : std::max(ra.xlo, rb.xlo);
        const double hi = vertical ? std::min(ra.yhi, rb.yhi)
                                   : std::min(ra.xhi, rb.xhi);
        auto in_range = [&](const mesh::Point2& p) {
          const double t = vertical ? p.y : p.x;
          return t >= lo && t <= hi;
        };
        std::vector<mesh::Point2> a, b;
        for (const auto& p : mine) {
          if (in_range(p)) a.push_back(p);
        }
        for (const auto& p : theirs) {
          if (in_range(p)) b.push_back(p);
        }
        if (a.size() != b.size()) {
          return util::format(
              "cells {} and {} disagree on side {}: {} vs {} border points",
              i, j, side, a.size(), b.size());
        }
        for (std::size_t k = 0; k < a.size(); ++k) {
          if (!(a[k] == b[k])) {
            return util::format(
                "cells {} and {} border point {} differs: ({}, {}) vs ({}, {})",
                i, j, k, a[k].x, a[k].y, b[k].x, b[k].y);
          }
        }
      }
    }
  }
  return {};
}

}  // namespace mrts::pumg

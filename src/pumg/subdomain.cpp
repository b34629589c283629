#include "pumg/subdomain.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <tuple>

namespace mrts::pumg {

using mesh::Point2;
using mesh::Rect;
using mesh::VertexId;

void BoundarySplit::serialize(util::ByteWriter& out) const {
  out.write(a);
  out.write(b);
  out.write(m);
  out.write(side);
}

BoundarySplit BoundarySplit::deserialized(util::ByteReader& in) {
  BoundarySplit s;
  s.a = in.read<Point2>();
  s.b = in.read<Point2>();
  s.m = in.read<Point2>();
  s.side = in.read<std::int32_t>();
  return s;
}

PointKey::PointKey(const Point2& p) {
  std::memcpy(&x, &p.x, sizeof(double));
  std::memcpy(&y, &p.y, sizeof(double));
}

std::size_t PointKeyHash::operator()(const PointKey& k) const noexcept {
  std::uint64_t z = k.x * 0x9E3779B97F4A7C15ull ^ (k.y + 0xBF58476D1CE4E5B9ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>(z ^ (z >> 31));
}

std::optional<std::pair<Point2, Point2>> clip_segment_snapped(
    const Point2& a, const Point2& b, const Rect& r) {
  double t0 = 0.0, t1 = 1.0;
  int c0 = -1, c1 = -1;  // active constraint at each end
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double p[4] = {-dx, dx, -dy, dy};
  const double q[4] = {a.x - r.xlo, r.xhi - a.x, a.y - r.ylo, r.yhi - a.y};
  for (int i = 0; i < 4; ++i) {
    if (p[i] == 0.0) {
      if (q[i] < 0.0) return std::nullopt;
      continue;
    }
    const double t = q[i] / p[i];
    if (p[i] < 0.0) {
      if (t > t0) {
        t0 = t;
        c0 = i;
      }
    } else {
      if (t < t1) {
        t1 = t;
        c1 = i;
      }
    }
    if (t0 > t1) return std::nullopt;
  }
  // Unclipped endpoints pass through verbatim: recomputing them as
  // a + t*d with t = 0 or 1 would not be bitwise-identical to the input,
  // splitting one shared input vertex into several near-identical ones.
  Point2 pa = (t0 == 0.0) ? a : Point2{a.x + t0 * dx, a.y + t0 * dy};
  Point2 pb = (t1 == 1.0) ? b : Point2{a.x + t1 * dx, a.y + t1 * dy};
  // Snap the clipped coordinate exactly onto the border line: both cells
  // sharing the line then agree bitwise on the crossing point.
  const double lines[4] = {r.xlo, r.xhi, r.ylo, r.yhi};
  if (c0 >= 0) {
    if (c0 < 2) {
      pa.x = lines[c0];
    } else {
      pa.y = lines[c0];
    }
  }
  if (c1 >= 0) {
    if (c1 < 2) {
      pb.x = lines[c1];
    } else {
      pb.y = lines[c1];
    }
  }
  return std::pair{pa, pb};
}

namespace {

/// Which side line the point lies on, or -1. Corners report the x-side.
int side_of_point(const Point2& p, const Rect& cell) {
  if (p.x == cell.xlo) return kWest;
  if (p.x == cell.xhi) return kEast;
  if (p.y == cell.ylo) return kSouth;
  if (p.y == cell.yhi) return kNorth;
  return -1;
}

/// Tangential coordinate along a side (y for W/E, x for S/N).
double along(const Point2& p, int side) {
  return (side == kWest || side == kEast) ? p.y : p.x;
}

}  // namespace

Subdomain::Subdomain(const mesh::Pslg& global, const Rect& cell,
                     const std::vector<Point2>& extra_border_points)
    : cell_(cell) {
  // --- assemble the local PSLG ------------------------------------------------
  mesh::Pslg local;
  std::unordered_map<PointKey, std::uint32_t, PointKeyHash> index;
  auto add_point = [&](const Point2& p) {
    auto [it, inserted] =
        index.try_emplace(PointKey(p),
                          static_cast<std::uint32_t>(local.points.size()));
    if (inserted) local.points.push_back(p);
    return it->second;
  };

  std::array<std::vector<Point2>, 4> side_pts;
  side_pts[kWest] = {{cell.xlo, cell.ylo}, {cell.xlo, cell.yhi}};
  side_pts[kEast] = {{cell.xhi, cell.ylo}, {cell.xhi, cell.yhi}};
  side_pts[kSouth] = {{cell.xlo, cell.ylo}, {cell.xhi, cell.ylo}};
  side_pts[kNorth] = {{cell.xlo, cell.yhi}, {cell.xhi, cell.yhi}};

  auto note_border_point = [&](const Point2& p) {
    const int s = side_of_point(p, cell);
    if (s >= 0) side_pts[s].push_back(p);
    // A corner also lies on a y-side; handle the double membership.
    if ((p.x == cell.xlo || p.x == cell.xhi)) {
      if (p.y == cell.ylo) side_pts[kSouth].push_back(p);
      if (p.y == cell.yhi) side_pts[kNorth].push_back(p);
    }
  };

  for (const Point2& p : extra_border_points) note_border_point(p);

  // Clip the global input segments to the cell.
  struct Piece {
    Point2 a, b;
  };
  std::vector<Piece> pieces;
  for (const auto& [ia, ib] : global.segments) {
    const auto clipped =
        clip_segment_snapped(global.points[ia], global.points[ib], cell);
    if (!clipped) continue;
    const auto& [pa, pb] = *clipped;
    if (pa == pb) continue;  // grazing contact
    // A piece running along a border line is already covered by the side
    // constraints; register its endpoints but skip the duplicate segment.
    const bool along_border =
        (pa.x == pb.x && (pa.x == cell.xlo || pa.x == cell.xhi)) ||
        (pa.y == pb.y && (pa.y == cell.ylo || pa.y == cell.yhi));
    note_border_point(pa);
    note_border_point(pb);
    if (!along_border) pieces.push_back({pa, pb});
  }

  // Side constraints: sorted unique points, consecutive pairs.
  seg_side_.clear();
  for (int s = 0; s < 4; ++s) {
    auto& pts = side_pts[s];
    std::sort(pts.begin(), pts.end(), [&](const Point2& u, const Point2& v) {
      return along(u, s) < along(v, s);
    });
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
      local.segments.emplace_back(add_point(pts[i]), add_point(pts[i + 1]));
      seg_side_.push_back(s);
    }
  }
  for (const Piece& piece : pieces) {
    local.segments.emplace_back(add_point(piece.a), add_point(piece.b));
    seg_side_.push_back(-1);
  }
  // Isolated global input points strictly inside the cell.
  for (const Point2& p : global.points) {
    if (cell.contains_strict(p)) add_point(p);
  }

  // --- triangulate and classify -----------------------------------------------
  tri_ = mesh::Triangulation::conforming(local);
  tri_.filter_inside_regions(
      [&global](const Point2& c) { return global.contains(c); });

  // --- index border vertices, fold in recovery splits --------------------------
  for (VertexId v = 0; v < tri_.vertex_count(); ++v) {
    const auto kind = tri_.kind(v);
    if (kind != mesh::VertexKind::kInput && kind != mesh::VertexKind::kSegment) {
      continue;
    }
    if (side_of_point(tri_.point(v), cell) >= 0) {
      border_verts_.emplace(PointKey(tri_.point(v)), v);
    }
  }
  // Segment-recovery splits of side segments must be mirrored by neighbours
  // exactly like refinement splits; stash them for the driver.
  for (const auto& ev : tri_.drain_split_log()) {
    const std::int32_t side = seg_side_.at(ev.seg);
    if (side >= 0) {
      initial_splits_.push_back(BoundarySplit{ev.end_a, ev.end_b, ev.point, side});
    }
  }
}

int Subdomain::side_of_local_seg(mesh::SegId id) const {
  return id < seg_side_.size() ? seg_side_[id] : -1;
}

Subdomain::RefineOutcome Subdomain::refine(const mesh::RefineOptions& options,
                                           const mesh::RefineLimits& limits) {
  RefineOutcome out;
  mesh::DelaunayRefiner refiner(tri_, options);
  out.result = refiner.refine(limits);
  for (const auto& ev : tri_.drain_split_log()) {
    const int side = side_of_local_seg(ev.seg);
    if (side < 0) continue;
    border_verts_.emplace(PointKey(ev.point), ev.vertex);
    out.splits.push_back(
        BoundarySplit{ev.end_a, ev.end_b, ev.point, side});
  }
  return out;
}

bool Subdomain::apply_mirror_split(const BoundarySplit& split) {
  if (border_verts_.contains(PointKey(split.m))) {
    return false;  // both sides split the same subsegment concurrently
  }
  const auto ia = border_verts_.find(PointKey(split.a));
  const auto ib = border_verts_.find(PointKey(split.b));
  if (ia == border_verts_.end() || ib == border_verts_.end()) {
    throw std::logic_error(
        "Subdomain::apply_mirror_split: unknown subsegment endpoints "
        "(border discretizations diverged)");
  }
  const auto edge = tri_.find_edge(ia->second, ib->second);
  if (!edge) {
    throw std::logic_error(
        "Subdomain::apply_mirror_split: subsegment is not an edge");
  }
  const VertexId vm = tri_.split_subsegment(edge->first, edge->second);
  if (!(tri_.point(vm) == split.m)) {
    throw std::logic_error(
        "Subdomain::apply_mirror_split: split point mismatch "
        "(midpoint determinism violated)");
  }
  border_verts_.emplace(PointKey(split.m), vm);
  (void)tri_.drain_split_log();  // do not echo the mirrored split back
  return true;
}

double Subdomain::inside_area() const {
  return tri_.inside_quality(0.0).area;
}

std::vector<Point2> Subdomain::border_points(Side side) const {
  std::vector<Point2> pts;
  for (const auto& [key, v] : border_verts_) {
    const Point2& p = tri_.point(v);
    const bool on_side = (side == kWest && p.x == cell_.xlo) ||
                         (side == kEast && p.x == cell_.xhi) ||
                         (side == kSouth && p.y == cell_.ylo) ||
                         (side == kNorth && p.y == cell_.yhi);
    if (on_side) pts.push_back(p);
  }
  std::sort(pts.begin(), pts.end(), [&](const Point2& u, const Point2& v) {
    return along(u, side) < along(v, side);
  });
  return pts;
}

void Subdomain::serialize(util::ByteWriter& out) const {
  out.write(cell_);
  tri_.serialize(out);
  out.write_vector(seg_side_);
  // Written sorted by (vertex, key), not in bucket order: a reloaded map
  // has a different bucket history, and its cell must re-serialize to the
  // same bytes.
  std::vector<std::pair<VertexId, PointKey>> border;
  border.reserve(border_verts_.size());
  for (const auto& [key, v] : border_verts_) border.emplace_back(v, key);
  std::sort(border.begin(), border.end(), [](const auto& l, const auto& r) {
    return std::tie(l.first, l.second.x, l.second.y) <
           std::tie(r.first, r.second.x, r.second.y);
  });
  out.write<std::uint64_t>(border.size());
  for (const auto& [v, key] : border) {
    out.write(key);
    out.write(v);
  }
  out.write_vector_with(initial_splits_,
                        [](util::ByteWriter& w, const BoundarySplit& s) {
                          s.serialize(w);
                        });
}

void Subdomain::deserialize(util::ByteReader& in) {
  cell_ = in.read<Rect>();
  tri_ = mesh::Triangulation::deserialized(in);
  seg_side_ = in.read_vector<std::int32_t>();
  const auto n = in.read<std::uint64_t>();
  border_verts_.clear();
  border_verts_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto key = in.read<PointKey>();
    const auto v = in.read<VertexId>();
    border_verts_.emplace(key, v);
  }
  initial_splits_ = in.read_vector_with<BoundarySplit>(
      [](util::ByteReader& r) { return BoundarySplit::deserialized(r); });
}

std::size_t Subdomain::footprint_bytes() const {
  return tri_.footprint_bytes() + seg_side_.capacity() * sizeof(std::int32_t) +
         border_verts_.size() * (sizeof(PointKey) + sizeof(VertexId) + 16) +
         sizeof(*this);
}

}  // namespace mrts::pumg

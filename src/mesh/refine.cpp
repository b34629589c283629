#include "mesh/refine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mrts::mesh {
namespace {

constexpr double kPi = 3.14159265358979323846;

inline int next3(int i) { return (i + 1) % 3; }
inline int prev3(int i) { return (i + 2) % 3; }

}  // namespace

SizeField uniform_size(double h) {
  return [h](const Point2&) { return h; };
}

SizeField graded_size(Point2 focus, double h_near, double h_far, double r0,
                      double r1) {
  return [=](const Point2& p) {
    const double d = dist(p, focus);
    if (d <= r0) return h_near;
    if (d >= r1) return h_far;
    const double t = (d - r0) / (r1 - r0);
    return h_near + t * (h_far - h_near);
  };
}

DelaunayRefiner::DelaunayRefiner(Triangulation& tri, RefineOptions options)
    : tri_(tri), options_(std::move(options)) {
  const double bound = 1.0 / (2.0 * std::sin(options_.min_angle_deg * kPi / 180.0));
  ratio_bound2_ = bound * bound;
  rescan();
}

bool DelaunayRefiner::is_poor(const TriRec& rec) const {
  return is_poor(rec, nullptr);
}

bool DelaunayRefiner::is_poor(const TriRec& rec, const Point2* cc) const {
  const Point2& a = tri_.point(rec.v[0]);
  const Point2& b = tri_.point(rec.v[1]);
  const Point2& c = tri_.point(rec.v[2]);
  const double ab = dist2(a, b), bc = dist2(b, c), ca = dist2(c, a);
  const double lmin2 = std::min({ab, bc, ca});
  if (lmin2 <= 0.0) return false;  // degenerate; nothing sane to do
  // Both tests are pure, so their order does not change the answer. The
  // size test needs no division, so it runs first.
  if (options_.size_field) {
    const Point2 centroid{(a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0};
    const double h = options_.size_field(centroid);
    if (h > 0.0 && std::sqrt(std::max({ab, bc, ca})) > h) return true;
  }
  const double r2 = cc != nullptr ? dist2(*cc, a) : circumradius2(a, b, c);
  return r2 > ratio_bound2_ * lmin2;
}

bool DelaunayRefiner::seg_encroached(TriId t, int edge) const {
  const TriRec& rec = tri_.tri(t);
  if (!rec.alive || rec.seg[edge] == kNoSeg) return false;
  const Point2& a = tri_.point(rec.v[next3(edge)]);
  const Point2& b = tri_.point(rec.v[prev3(edge)]);
  // Local test: under the Delaunay property, if any vertex encroaches then
  // an opposite apex does.
  const VertexId apex1 = rec.v[edge];
  if (tri_.kind(apex1) != VertexKind::kSuper &&
      in_diametral_circle(a, b, tri_.point(apex1))) {
    return true;
  }
  const TriId n = rec.nbr[edge];
  if (n != kNoTri) {
    const TriRec& nrec = tri_.tri(n);
    for (int j = 0; j < 3; ++j) {
      if (nrec.nbr[j] == t) {
        const VertexId apex2 = nrec.v[j];
        if (tri_.kind(apex2) != VertexKind::kSuper &&
            in_diametral_circle(a, b, tri_.point(apex2))) {
          return true;
        }
        break;
      }
    }
  }
  return false;
}

void DelaunayRefiner::rescan() {
  seg_queue_.clear();
  tri_queue_.clear();
  for (TriId t = 0; t < tri_.tri_slots(); ++t) enqueue(t);
}

void DelaunayRefiner::enqueue_created() {
  for (TriId t : tri_.last_created()) enqueue(t);
}

void DelaunayRefiner::enqueue(TriId t) {
  const TriRec& rec = tri_.tri(t);
  if (!rec.alive) return;
  for (int i = 0; i < 3; ++i) {
    if (rec.seg[i] != kNoSeg && seg_encroached(t, i)) {
      seg_queue_.push_back({t, i});
    }
  }
  if (rec.inside && is_poor(rec)) tri_queue_.push_back(t);
}

std::size_t DelaunayRefiner::process_segment_queue_entry() {
  const SubSegment s = seg_queue_.front();
  seg_queue_.pop_front();
  if (s.tri >= tri_.tri_slots()) return 0;
  const TriRec& rec = tri_.tri(s.tri);
  if (!rec.alive || rec.seg[s.edge] == kNoSeg) return 0;  // stale handle
  if (!seg_encroached(s.tri, s.edge)) return 0;
  tri_.split_subsegment(s.tri, s.edge);
  ++splits_;
  enqueue_created();
  return 1;
}

std::size_t DelaunayRefiner::process_triangle_queue_entry() {
  blocked_.clear();
  const TriId t = tri_queue_.front();
  tri_queue_.pop_front();
  const TriRec& rec = tri_.tri(t);
  if (!rec.alive || !rec.inside) return 0;
  const auto cc = circumcenter(tri_.point(rec.v[0]), tri_.point(rec.v[1]),
                               tri_.point(rec.v[2]));
  if (!cc || !is_poor(rec, &*cc)) return 0;  // degenerate or not poor: skip
  const InsertResult r =
      tri_.insert_point(*cc, t, /*guard_segments=*/true, &blocked_);
  switch (r.kind) {
    case InsertResult::Kind::kInserted:
      enqueue_created();
      return 1;
    case InsertResult::Kind::kBlocked: {
      // Ruppert's rule: subsegments encroached by the candidate point are
      // split unconditionally (the encroaching point is hypothetical, so
      // the apex-based test cannot see it). Then revisit the triangle.
      std::size_t inserted = 0;
      for (const SubSegment& s : blocked_) {
        if (s.tri >= tri_.tri_slots()) continue;
        const TriRec& srec = tri_.tri(s.tri);
        if (!srec.alive || srec.seg[s.edge] == kNoSeg) continue;  // stale
        tri_.split_subsegment(s.tri, s.edge);
        ++splits_;
        ++inserted;
        enqueue_created();
      }
      if (!blocked_.empty()) {
        tri_queue_.push_back(t);  // revisit once the segments are split
      }
      // An empty blocked list means the walk ran off the mesh without a
      // constraint in the way (outside-region runaway); drop the triangle
      // rather than loop on it.
      return inserted;
    }
    case InsertResult::Kind::kDuplicate: {
      // Circumcenter coincides with an existing vertex (symmetric, often
      // grid-like configurations). Fall back to the longest-edge midpoint;
      // if that is also taken or blocked, give the triangle up.
      const TriRec& rec2 = tri_.tri(t);
      const Point2& a = tri_.point(rec2.v[0]);
      const Point2& b = tri_.point(rec2.v[1]);
      const Point2& c = tri_.point(rec2.v[2]);
      const double ab = dist2(a, b), bc = dist2(b, c), ca = dist2(c, a);
      Point2 m;
      if (ab >= bc && ab >= ca) {
        m = midpoint(a, b);
      } else if (bc >= ca) {
        m = midpoint(b, c);
      } else {
        m = midpoint(c, a);
      }
      const InsertResult r2 =
          tri_.insert_point(m, t, /*guard_segments=*/true, &blocked_);
      if (r2.kind == InsertResult::Kind::kInserted) {
        enqueue_created();
        return 1;
      }
      if (r2.kind == InsertResult::Kind::kBlocked) {
        std::size_t inserted = 0;
        for (const SubSegment& s : blocked_) {
          if (s.tri >= tri_.tri_slots()) continue;
          const TriRec& srec = tri_.tri(s.tri);
          if (!srec.alive || srec.seg[s.edge] == kNoSeg) continue;
          tri_.split_subsegment(s.tri, s.edge);
          ++splits_;
          ++inserted;
          enqueue_created();
        }
        if (inserted > 0) tri_queue_.push_back(t);
        return inserted;
      }
      return 0;
    }
    case InsertResult::Kind::kOnConstrainedEdge: {
      // The circumcenter lies exactly on a subsegment: split that segment.
      const TriRec& srec = tri_.tri(r.tri);
      if (srec.alive && srec.seg[r.edge] != kNoSeg) {
        tri_.split_subsegment(r.tri, r.edge);
        ++splits_;
        enqueue_created();
        tri_queue_.push_back(t);
        return 1;
      }
      tri_queue_.push_back(t);
      return 0;
    }
  }
  return 0;
}

RefineResult DelaunayRefiner::refine(const RefineLimits& limits) {
  RefineResult result;
  const std::size_t splits_before = splits_;
  while (!seg_queue_.empty() || !tri_queue_.empty()) {
    if (limits.max_new_vertices != 0 &&
        result.vertices_inserted >= limits.max_new_vertices) {
      result.complete = false;
      break;
    }
    if (tri_.vertex_count() > limits.vertex_cap) {
      throw std::runtime_error("DelaunayRefiner: vertex cap exceeded");
    }
    if (!seg_queue_.empty()) {
      result.vertices_inserted += process_segment_queue_entry();
    } else {
      result.vertices_inserted += process_triangle_queue_entry();
    }
  }
  result.segment_splits = splits_ - splits_before;
  return result;
}

Triangulation refine_pslg(const Pslg& pslg, const RefineOptions& options) {
  Triangulation tri = Triangulation::conforming(pslg);
  (void)tri.drain_split_log();  // recovery splits are not refinement splits
  DelaunayRefiner refiner(tri, options);
  refiner.refine();
  return tri;
}

}  // namespace mrts::mesh

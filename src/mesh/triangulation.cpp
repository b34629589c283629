#include "mesh/triangulation.hpp"

#include <algorithm>
#include <cstdio>
#include <cassert>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/format.hpp"

namespace mrts::mesh {
namespace {

constexpr int kMaxWalkSteps = 1 << 22;
constexpr double kPi = 3.14159265358979323846;

inline int next3(int i) { return (i + 1) % 3; }
inline int prev3(int i) { return (i + 2) % 3; }

}  // namespace

Triangulation::Triangulation(const Rect& bounds) {
  const Point2 c = bounds.center();
  double s = std::max({bounds.width(), bounds.height(), 1e-9});
  s *= 16.0;
  // CCW super-triangle comfortably containing `bounds`.
  super_[0] = new_vertex({c.x - 2.0 * s, c.y - s}, VertexKind::kSuper);
  super_[1] = new_vertex({c.x + 2.0 * s, c.y - s}, VertexKind::kSuper);
  super_[2] = new_vertex({c.x, c.y + 2.0 * s}, VertexKind::kSuper);
  const TriId t = new_tri();
  tris_[t].v = {super_[0], super_[1], super_[2]};
  set_inside(t, false);  // the super region is outside until classify()
  vert_tri_[super_[0]] = vert_tri_[super_[1]] = vert_tri_[super_[2]] = t;
  last_located_ = t;
}

VertexId Triangulation::new_vertex(const Point2& p, VertexKind k) {
  verts_.push_back(p);
  kinds_.push_back(k);
  vert_tri_.push_back(kNoTri);
  return static_cast<VertexId>(verts_.size() - 1);
}

TriId Triangulation::new_tri() {
  TriId t;
  if (!free_tris_.empty()) {
    t = free_tris_.back();
    free_tris_.pop_back();
    tris_[t] = TriRec{};
  } else {
    tris_.push_back(TriRec{});
    t = static_cast<TriId>(tris_.size() - 1);
  }
  ++alive_count_;
  ++inside_count_;  // TriRec defaults to inside=1
  return t;
}

void Triangulation::kill_tri(TriId t) {
  TriRec& rec = tris_[t];
  assert(rec.alive);
  if (rec.inside) --inside_count_;
  rec.alive = 0;
  --alive_count_;
  free_tris_.push_back(t);
}

void Triangulation::set_inside(TriId t, bool inside) {
  TriRec& rec = tris_[t];
  if (!rec.alive) return;
  if (rec.inside && !inside) --inside_count_;
  if (!rec.inside && inside) ++inside_count_;
  rec.inside = inside ? 1 : 0;
}

bool Triangulation::has_super_vertex(const TriRec& t) const {
  for (VertexId v : t.v) {
    if (kinds_[v] == VertexKind::kSuper) return true;
  }
  return false;
}

int Triangulation::edge_index_of_nbr(const TriRec& t, TriId n) const {
  for (int i = 0; i < 3; ++i) {
    if (t.nbr[i] == n) return i;
  }
  return -1;
}

TriId Triangulation::locate(const Point2& p, TriId hint) const {
  TriId t = (hint != kNoTri && tris_[hint].alive) ? hint : last_located_;
  if (t == kNoTri || !tris_[t].alive) {
    // Fall back to any alive triangle.
    for (TriId i = 0; i < tris_.size(); ++i) {
      if (tris_[i].alive) {
        t = i;
        break;
      }
    }
  }
  TriId prev = kNoTri;
  for (int step = 0; step < kMaxWalkSteps; ++step) {
    const TriRec& rec = tris_[t];
    int move = -1;
    for (int i = 0; i < 3; ++i) {
      if (rec.nbr[i] == prev && prev != kNoTri) continue;
      const Point2& a = verts_[rec.v[next3(i)]];
      const Point2& b = verts_[rec.v[prev3(i)]];
      if (orient2d(a, b, p) < 0.0) {
        move = i;
        break;
      }
    }
    if (move < 0) {
      last_located_ = t;
      return t;
    }
    const TriId nxt = rec.nbr[move];
    if (nxt == kNoTri) {
      throw std::logic_error("Triangulation::locate: point outside the super-triangle");
    }
    prev = t;
    t = nxt;
  }
  throw std::logic_error("Triangulation::locate: walk did not terminate");
}

Triangulation::BarrierLocate Triangulation::locate_stopping_at_segments(
    const Point2& p, TriId hint) const {
  TriId t = (hint != kNoTri && tris_[hint].alive) ? hint : last_located_;
  if (t == kNoTri || !tris_[t].alive) {
    for (TriId i = 0; i < tris_.size(); ++i) {
      if (tris_[i].alive) {
        t = i;
        break;
      }
    }
  }
  TriId prev = kNoTri;
  for (int step = 0; step < kMaxWalkSteps; ++step) {
    const TriRec& rec = tris_[t];
    int move = -1;
    for (int i = 0; i < 3; ++i) {
      if (rec.nbr[i] == prev && prev != kNoTri) continue;
      const Point2& a = verts_[rec.v[next3(i)]];
      const Point2& b = verts_[rec.v[prev3(i)]];
      if (orient2d(a, b, p) < 0.0) {
        move = i;
        break;
      }
    }
    if (move < 0) {
      last_located_ = t;
      return {t, false, -1};
    }
    if (rec.seg[move] != kNoSeg) {
      return {t, true, move};
    }
    const TriId nxt = rec.nbr[move];
    if (nxt == kNoTri) {
      // Walking off the super-triangle without hitting a constraint can
      // only happen for runaway circumcenters in the outside region; the
      // caller treats this like a blocked walk with no segment.
      return {t, true, -1};
    }
    prev = t;
    t = nxt;
  }
  throw std::logic_error(
      "Triangulation::locate_stopping_at_segments: walk did not terminate");
}

std::optional<std::pair<TriId, int>> Triangulation::find_edge(
    VertexId a, VertexId b) const {
  const TriId start = vert_tri_[a];
  if (start == kNoTri) return std::nullopt;
  TriId t = start;
  for (int guard = 0; guard < kMaxWalkSteps; ++guard) {
    const TriRec& rec = tris_[t];
    int ia = -1;
    for (int i = 0; i < 3; ++i) {
      if (rec.v[i] == a) ia = i;
    }
    assert(ia >= 0);
    for (int i = 0; i < 3; ++i) {
      if (rec.v[i] == b) {
        // Edge (a, b) is the edge opposite the third vertex.
        const int third = 3 - ia - i;
        return std::pair{t, third};
      }
    }
    t = rec.nbr[next3(ia)];  // rotate around a
    if (t == start) return std::nullopt;
    if (t == kNoTri) {
      throw std::logic_error("Triangulation::find_edge: open fan around vertex");
    }
  }
  throw std::logic_error("Triangulation::find_edge: fan walk did not terminate");
}

struct Triangulation::CavityScratch {
  std::vector<TriId> cavity;
  std::vector<CavityEdge> boundary;
  std::vector<TriId> stack;
  /// mark[t] == epoch: triangle slot t is in the current cavity. One epoch
  /// per cavity, so nothing is cleared between insertions; the array grows
  /// to the largest triangulation this thread has inserted into.
  std::vector<std::uint32_t> mark;
  std::uint32_t epoch = 0;
  /// star[x] holds the indices of the last boundary edge that starts at
  /// vertex x (`from`) and of the last that ends at it (`to`). An index
  /// counts only while that edge of the current boundary really starts (or
  /// ends) at x. Every x for which such an edge exists had its index
  /// rewritten when the star was made, so a stale index never passes, and
  /// nothing is cleared between insertions: 8 bytes per vertex.
  struct StarLinks {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
  };
  std::vector<StarLinks> star;
};

Triangulation::CavityScratch& Triangulation::cavity_scratch() {
  thread_local CavityScratch scratch;
  return scratch;
}

void Triangulation::build_cavity(const Point2& p, TriId t0,
                                 CavityScratch& s) const {
  s.cavity.clear();
  s.boundary.clear();
  if (++s.epoch == 0) {
    std::fill(s.mark.begin(), s.mark.end(), 0u);
    s.epoch = 1;
  }
  if (s.mark.size() < tris_.size()) s.mark.resize(tris_.size(), 0u);
  const std::uint32_t epoch = s.epoch;
  s.stack.assign(1, t0);
  s.mark[t0] = epoch;
  while (!s.stack.empty()) {
    const TriId t = s.stack.back();
    s.stack.pop_back();
    s.cavity.push_back(t);
    const TriRec& rec = tris_[t];
    for (int i = 0; i < 3; ++i) {
      const TriId n = rec.nbr[i];
      const VertexId ea = rec.v[next3(i)];
      const VertexId eb = rec.v[prev3(i)];
      if (n != kNoTri && s.mark[n] == epoch) continue;
      bool cross = false;
      if (n != kNoTri && rec.seg[i] == kNoSeg) {
        const TriRec& nrec = tris_[n];
        cross = incircle(verts_[nrec.v[0]], verts_[nrec.v[1]],
                         verts_[nrec.v[2]], p) > 0.0;
      }
      if (cross) {
        s.mark[n] = epoch;
        s.stack.push_back(n);
      } else {
        s.boundary.push_back(
            CavityEdge{ea, eb, n, rec.seg[i], rec.inside != 0});
      }
    }
  }
}

void Triangulation::star_cavity(VertexId v, CavityScratch& s) {
  const std::vector<CavityEdge>& boundary = s.boundary;
  for (TriId t : s.cavity) kill_tri(t);
  if (s.star.size() < verts_.size()) s.star.resize(verts_.size());
  created_.clear();
  for (const CavityEdge& e : boundary) {
    const TriId t = new_tri();
    TriRec& rec = tris_[t];
    rec.v = {e.a, e.b, v};
    rec.seg = {kNoSeg, kNoSeg, e.seg};
    rec.nbr = {kNoTri, kNoTri, e.outer};
    set_inside(t, e.inside);
    if (e.outer != kNoTri) {
      TriRec& orec = tris_[e.outer];
      for (int j = 0; j < 3; ++j) {
        if (orec.v[j] != e.a && orec.v[j] != e.b) {
          orec.nbr[j] = t;
          break;
        }
      }
    }
    vert_tri_[e.a] = t;
    vert_tri_[e.b] = t;
    const auto k = static_cast<std::uint32_t>(created_.size());
    s.star[e.a].from = k;
    s.star[e.b].to = k;
    created_.push_back(t);
  }
  vert_tri_[v] = created_.empty() ? kNoTri : created_.front();
  // created_[k] is the star triangle on boundary[k]. A link is the star
  // triangle of the last boundary edge whose `end` is x, so a boundary that
  // visits a vertex twice links like a last-write-wins map keyed by vertex.
  auto last_star = [&](std::uint32_t k, VertexId CavityEdge::*end,
                       VertexId x) {
    if (k < boundary.size() && boundary[k].*end == x) return created_[k];
    throw std::logic_error(
        "Triangulation::star_cavity: cavity boundary is not closed");
  };
  for (const CavityEdge& e : boundary) {
    const TriId t = created_[s.star[e.a].from];
    // Edge opposite index 0 (vertex a) is (b, v): neighbor is the triangle
    // whose boundary edge starts at b. Edge opposite index 1 (vertex b) is
    // (v, a): neighbor's boundary edge ends at a.
    tris_[t].nbr[0] = last_star(s.star[e.b].from, &CavityEdge::a, e.b);
    tris_[t].nbr[1] = last_star(s.star[e.a].to, &CavityEdge::b, e.a);
  }
}

InsertResult Triangulation::insert_point(const Point2& p, TriId hint,
                                         bool guard_segments,
                                         std::vector<SubSegment>* blocked_out) {
  TriId t0;
  if (guard_segments) {
    const BarrierLocate bl = locate_stopping_at_segments(p, hint);
    if (bl.blocked) {
      if (bl.edge >= 0 && blocked_out != nullptr) {
        blocked_out->push_back(SubSegment{bl.tri, bl.edge});
      }
      return {InsertResult::Kind::kBlocked, kNoVertex, bl.tri, bl.edge};
    }
    t0 = bl.tri;
  } else {
    t0 = locate(p, hint);
  }
  const TriRec& rec0 = tris_[t0];
  // Duplicate check against the containing triangle's corners.
  for (int i = 0; i < 3; ++i) {
    if (verts_[rec0.v[i]] == p) {
      return {InsertResult::Kind::kDuplicate, rec0.v[i], t0, -1};
    }
  }
  // Exactly on a constrained edge of the containing triangle?
  for (int i = 0; i < 3; ++i) {
    if (rec0.seg[i] == kNoSeg) continue;
    const Point2& a = verts_[rec0.v[next3(i)]];
    const Point2& b = verts_[rec0.v[prev3(i)]];
    if (orient2d(a, b, p) == 0.0) {
      return {InsertResult::Kind::kOnConstrainedEdge, kNoVertex, t0, i};
    }
  }

  CavityScratch& scratch = cavity_scratch();
  build_cavity(p, t0, scratch);

  if (guard_segments) {
    bool blocked = false;
    for (const CavityEdge& e : scratch.boundary) {
      if (e.seg == kNoSeg) continue;
      if (in_diametral_circle(verts_[e.a], verts_[e.b], p)) {
        blocked = true;
        if (blocked_out != nullptr && e.outer != kNoTri) {
          // Report the subsegment via the outer triangle: it survives the
          // upcoming non-mutation (no cavity is carved on this path).
          const TriRec& orec = tris_[e.outer];
          for (int k = 0; k < 3; ++k) {
            if (orec.v[k] != e.a && orec.v[k] != e.b) {
              blocked_out->push_back(SubSegment{e.outer, k});
              break;
            }
          }
        }
      }
    }
    if (blocked) {
      return {InsertResult::Kind::kBlocked, kNoVertex, t0, -1};
    }
  }

  const VertexId v = new_vertex(p, VertexKind::kFree);
  star_cavity(v, scratch);
  return {InsertResult::Kind::kInserted, v, kNoTri, -1};
}

namespace {

/// True if p lies strictly between a and b on the line through them
/// (caller guarantees collinearity).
bool strictly_between(const Point2& a, const Point2& b, const Point2& p) {
  const double dot = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y);
  const double len2 = (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y);
  return dot > 0.0 && dot < len2;
}

}  // namespace

void Triangulation::triangulate_pseudo_polygon(
    VertexId a, VertexId e, std::span<const VertexId> chain,
    std::vector<TriId>& out, bool inside) {
  // Anglada's recursive pseudo-polygon triangulation: pick the chain vertex
  // whose circumcircle with the base edge is empty of the other chain
  // vertices, emit triangle (a, e, c), recurse on the two sub-chains.
  if (chain.empty()) return;
  std::size_t ci = 0;
  for (std::size_t k = 1; k < chain.size(); ++k) {
    if (incircle(verts_[a], verts_[e], verts_[chain[ci]],
                 verts_[chain[k]]) > 0.0) {
      ci = k;
    }
  }
  const VertexId c = chain[ci];
  const TriId t = new_tri();
  tris_[t].v = {a, e, c};
  set_inside(t, inside);
  out.push_back(t);
  triangulate_pseudo_polygon(a, c, chain.subspan(0, ci), out, inside);
  triangulate_pseudo_polygon(c, e, chain.subspan(ci + 1), out, inside);
}

void Triangulation::insert_segment(VertexId a, VertexId b, SegId id) {
  if (a == b) return;
  if (auto e = find_edge(a, b)) {
    auto [t, i] = *e;
    tris_[t].seg[i] = id;
    const TriId n = tris_[t].nbr[i];
    if (n != kNoTri) {
      const int j = edge_index_of_nbr(tris_[n], t);
      assert(j >= 0);
      tris_[n].seg[j] = id;
    }
    return;
  }

  // True constrained insertion (no Steiner points): walk the triangles
  // crossed by the open segment (a, b), remove them, and retriangulate the
  // upper and lower pseudo-polygons against the new constrained edge. A
  // vertex lying exactly on the segment splits the insertion at that
  // vertex.
  const Point2& pa = verts_[a];
  const Point2& pb = verts_[b];

  // Find the wedge triangle at `a` through which the segment leaves.
  const TriId start = vert_tri_[a];
  TriId t0 = kNoTri;
  VertexId left = kNoVertex, right = kNoVertex;
  {
    TriId t = start;
    for (int guard = 0; guard < kMaxWalkSteps; ++guard) {
      const TriRec& rec = tris_[t];
      int ia = -1;
      for (int i = 0; i < 3; ++i) {
        if (rec.v[i] == a) ia = i;
      }
      assert(ia >= 0);
      const VertexId p = rec.v[next3(ia)];
      const VertexId q = rec.v[prev3(ia)];
      const double op = orient2d(pa, pb, verts_[p]);
      const double oq = orient2d(pa, pb, verts_[q]);
      if (op == 0.0 && strictly_between(pa, pb, verts_[p])) {
        insert_segment(a, p, id);
        insert_segment(p, b, id);
        return;
      }
      if (oq == 0.0 && strictly_between(pa, pb, verts_[q])) {
        insert_segment(a, q, id);
        insert_segment(q, b, id);
        return;
      }
      // The segment leaves through this wedge iff p lies right of the ray
      // a->b and q lies left (triangle (a, p, q) is CCW, so its interior
      // spans clockwise from q to p around a).
      if (op < 0.0 && oq > 0.0) {
        t0 = t;
        left = q;
        right = p;
        break;
      }
      t = rec.nbr[next3(ia)];  // rotate around a
      if (t == start || t == kNoTri) break;
    }
  }
  if (t0 == kNoTri) {
    throw std::logic_error(
        "Triangulation::insert_segment: no wedge triangle found");
  }

  std::vector<TriId> crossed{t0};
  std::vector<VertexId> upper{left}, lower{right};
  VertexId endpoint = kNoVertex;
  TriId cur = t0;
  for (int guard = 0; guard < kMaxWalkSteps && endpoint == kNoVertex;
       ++guard) {
    // Cross edge (left, right) of `cur`.
    const TriRec& rec = tris_[cur];
    int ce = -1;
    for (int i = 0; i < 3; ++i) {
      const VertexId ea = rec.v[next3(i)];
      const VertexId eb = rec.v[prev3(i)];
      if ((ea == left && eb == right) || (ea == right && eb == left)) {
        ce = i;
        break;
      }
    }
    assert(ce >= 0);
    if (rec.seg[ce] != kNoSeg) {
      throw std::runtime_error(util::format(
          "Triangulation::insert_segment: input segments cross: inserting "
          "({}, {})-({}, {}) hit constrained edge ({}, {})-({}, {}) id {}",
          pa.x, pa.y, pb.x, pb.y, verts_[rec.v[next3(ce)]].x,
          verts_[rec.v[next3(ce)]].y, verts_[rec.v[prev3(ce)]].x,
          verts_[rec.v[prev3(ce)]].y, rec.seg[ce]));
    }
    const TriId n = rec.nbr[ce];
    if (n == kNoTri) {
      throw std::logic_error(
          "Triangulation::insert_segment: walked off the mesh");
    }
    const TriRec& nrec = tris_[n];
    const int j = edge_index_of_nbr(nrec, cur);
    assert(j >= 0);
    const VertexId r = nrec.v[j];
    crossed.push_back(n);
    if (r == b) {
      endpoint = b;
      break;
    }
    const double o = orient2d(pa, pb, verts_[r]);
    if (o == 0.0 && strictly_between(pa, pb, verts_[r])) {
      endpoint = r;  // finish this stretch at r, recurse for (r, b)
      break;
    }
    if (o > 0.0) {
      upper.push_back(r);
      left = r;
    } else {
      lower.push_back(r);
      right = r;
    }
    cur = n;
  }
  if (endpoint == kNoVertex) {
    throw std::logic_error(
        "Triangulation::insert_segment: segment walk did not terminate");
  }

  // Record the outer boundary of the crossed region before deleting it:
  // directed edge (x, y) -> (outer triangle, constraint id).
  struct OuterRef {
    TriId tri;
    SegId seg;
  };
  std::unordered_map<std::uint64_t, OuterRef> outer;
  auto edge_key = [](VertexId x, VertexId y) {
    return (static_cast<std::uint64_t>(x) << 32) | y;
  };
  std::unordered_set<TriId> crossed_set(crossed.begin(), crossed.end());
  const bool inside = tris_[crossed.front()].inside != 0;
  for (TriId t : crossed) {
    const TriRec& rec = tris_[t];
    for (int i = 0; i < 3; ++i) {
      const TriId n = rec.nbr[i];
      if (n != kNoTri && crossed_set.contains(n)) continue;
      outer.emplace(edge_key(rec.v[next3(i)], rec.v[prev3(i)]),
                    OuterRef{n, rec.seg[i]});
    }
  }
  for (TriId t : crossed) kill_tri(t);

  // Retriangulate both pseudo-polygons. Upper chain vertices are left of
  // a->endpoint: fan with base (a, endpoint). Lower chain uses the
  // reversed base so its triangles stay CCW.
  std::vector<TriId> fresh;
  triangulate_pseudo_polygon(a, endpoint, upper, fresh, inside);
  // The lower chain was collected walking a->endpoint; its pseudo-polygon
  // base runs endpoint->a, so reverse it to stay ordered along the
  // polygon boundary.
  std::reverse(lower.begin(), lower.end());
  triangulate_pseudo_polygon(endpoint, a, lower, fresh, inside);

  // Stitch adjacency: internal edges pair up among the new triangles;
  // boundary edges reconnect to the recorded outside.
  std::unordered_map<std::uint64_t, std::pair<TriId, int>> half_edges;
  for (TriId t : fresh) {
    const TriRec& rec = tris_[t];
    for (int i = 0; i < 3; ++i) {
      half_edges.emplace(edge_key(rec.v[next3(i)], rec.v[prev3(i)]),
                         std::pair{t, i});
    }
  }
  for (TriId t : fresh) {
    TriRec& rec = tris_[t];
    for (int i = 0; i < 3; ++i) {
      const VertexId x = rec.v[next3(i)];
      const VertexId y = rec.v[prev3(i)];
      if (auto it = half_edges.find(edge_key(y, x)); it != half_edges.end()) {
        rec.nbr[i] = it->second.first;  // internal (includes the new base)
        continue;
      }
      const auto ot = outer.find(edge_key(x, y));
      const auto ot2 = outer.find(edge_key(y, x));
      const OuterRef ref = ot != outer.end()
                               ? ot->second
                               : (ot2 != outer.end() ? ot2->second
                                                     : OuterRef{kNoTri, kNoSeg});
      rec.nbr[i] = ref.tri;
      rec.seg[i] = ref.seg;
      if (ref.tri != kNoTri) {
        TriRec& orec = tris_[ref.tri];
        for (int k = 0; k < 3; ++k) {
          if (orec.v[k] != x && orec.v[k] != y) {
            orec.nbr[k] = t;
            break;
          }
        }
      }
    }
    for (VertexId v : rec.v) vert_tri_[v] = t;
  }
  // Constrain the new base edge on both sides.
  if (auto e = find_edge(a, endpoint)) {
    auto [t, i] = *e;
    tris_[t].seg[i] = id;
    const TriId n = tris_[t].nbr[i];
    if (n != kNoTri) {
      const int j = edge_index_of_nbr(tris_[n], t);
      assert(j >= 0);
      tris_[n].seg[j] = id;
    }
  } else {
    throw std::logic_error(
        "Triangulation::insert_segment: base edge missing after stitch");
  }

  if (endpoint != b) insert_segment(endpoint, b, id);
}

void Triangulation::flip_edge(TriId t, int i) {
  // t = (a, p, q) with the shared edge (p, q) opposite a; neighbour n has
  // apex d opposite the same edge. After the flip: t' = (a, p, d),
  // n' = (a, d, q).
  TriRec& trec = tris_[t];
  assert(trec.alive && trec.seg[i] == kNoSeg);
  const TriId n = trec.nbr[i];
  assert(n != kNoTri);
  TriRec& nrec = tris_[n];
  const int j = edge_index_of_nbr(nrec, t);
  assert(j >= 0);

  const VertexId a = trec.v[i];
  const VertexId p = trec.v[next3(i)];
  const VertexId q = trec.v[prev3(i)];
  const VertexId d = nrec.v[j];

  // Outer neighbours and constraint ids.
  const TriId A = trec.nbr[next3(i)];  // across (q, a)
  const SegId segA = trec.seg[next3(i)];
  const TriId B = trec.nbr[prev3(i)];  // across (a, p)
  const SegId segB = trec.seg[prev3(i)];
  // In n, identify edges (p, d) and (d, q).
  int jp = -1, jq = -1;
  for (int k = 0; k < 3; ++k) {
    if (nrec.v[k] == p) jp = k;  // edge opposite p is (d, q)
    if (nrec.v[k] == q) jq = k;  // edge opposite q is (p, d)
  }
  assert(jp >= 0 && jq >= 0);
  const TriId C = nrec.nbr[jq];  // across (p, d)
  const SegId segC = nrec.seg[jq];
  const TriId D = nrec.nbr[jp];  // across (d, q)
  const SegId segD = nrec.seg[jp];
  const bool inside = trec.inside != 0;

  // Rebuild t as (a, p, d) and n as (a, d, q).
  trec.v = {a, p, d};
  trec.nbr = {C, n, B};       // opp a=(p,d)->C, opp p=(d,a)->n', opp d=(a,p)->B
  trec.seg = {segC, kNoSeg, segB};
  nrec.v = {a, d, q};
  nrec.nbr = {D, A, t};       // opp a=(d,q)->D, opp d=(q,a)->A, opp q=(a,d)->t'
  nrec.seg = {segD, segA, kNoSeg};
  set_inside(t, inside);
  set_inside(n, inside);

  auto relink = [this](TriId outer, TriId from_old, TriId to_new) {
    if (outer == kNoTri) return;
    TriRec& orec = tris_[outer];
    for (int k = 0; k < 3; ++k) {
      if (orec.nbr[k] == from_old) {
        orec.nbr[k] = to_new;
        return;
      }
    }
  };
  // A moves from t to n; C moves from n to t; B stays on t; D stays on n.
  relink(A, t, n);
  relink(C, n, t);
  vert_tri_[a] = t;
  vert_tri_[p] = t;
  vert_tri_[d] = t;
  vert_tri_[q] = n;
}

void Triangulation::legalize(VertexId m, TriId t) {
  TriRec& rec = tris_[t];
  if (!rec.alive) return;
  int im = -1;
  for (int k = 0; k < 3; ++k) {
    if (rec.v[k] == m) im = k;
  }
  if (im < 0) return;
  const TriId n = rec.nbr[im];
  if (n == kNoTri || rec.seg[im] != kNoSeg) return;
  const TriRec& nrec = tris_[n];
  const int j = edge_index_of_nbr(nrec, t);
  assert(j >= 0);
  const VertexId d = nrec.v[j];
  if (incircle(verts_[rec.v[0]], verts_[rec.v[1]], verts_[rec.v[2]],
               verts_[d]) > 0.0) {
    flip_edge(t, im);
    created_.push_back(t);
    created_.push_back(n);
    legalize(m, t);
    legalize(m, n);
  }
}

VertexId Triangulation::split_subsegment(TriId tri, int edge) {
  // Subdivide the two triangles adjacent to the constrained edge at its
  // midpoint, then restore the constrained-Delaunay property by Lawson
  // legalization. (Cavity insertion is wrong here: with the constraint
  // lifted, the conflict region can swallow the segment endpoints in
  // constrained-Delaunay configurations.)
  TriRec& rec = tris_[tri];
  assert(rec.alive && rec.seg[edge] != kNoSeg);
  const SegId id = rec.seg[edge];
  const VertexId u = rec.v[next3(edge)];
  const VertexId w = rec.v[prev3(edge)];
  const VertexId a = rec.v[edge];
  const TriId n = rec.nbr[edge];
  const Point2 m = midpoint(verts_[u], verts_[w]);
  const VertexId vm = new_vertex(m, VertexKind::kSegment);

  // Gather t-side context: t = (a, u, w) up to rotation; outer neighbours.
  const TriId t_au = rec.nbr[prev3(edge)];  // across (a, u)
  const SegId seg_au = rec.seg[prev3(edge)];
  const TriId t_wa = rec.nbr[next3(edge)];  // across (w, a)
  const SegId seg_wa = rec.seg[next3(edge)];
  const bool inside_t = rec.inside != 0;

  created_.clear();

  // Replace t with (a, u, m) and a fresh (a, m, w).
  const TriId t2 = new_tri();
  TriRec& rec2 = tris_[t2];  // (a, m, w)
  TriRec& rec1 = tris_[tri];  // reuse as (a, u, m); re-reference after new_tri
  rec1.v = {a, u, vm};
  rec1.seg = {id, kNoSeg, seg_au};
  rec1.nbr = {kNoTri, t2, t_au};  // opp a=(u,m) to n-side; opp u=(m,a)->t2
  rec2.v = {a, vm, w};
  rec2.seg = {id, seg_wa, kNoSeg};
  rec2.nbr = {kNoTri, t_wa, tri};
  set_inside(tri, inside_t);
  set_inside(t2, inside_t);
  if (t_wa != kNoTri) {
    const int k = edge_index_of_nbr(tris_[t_wa], tri);
    if (k >= 0) tris_[t_wa].nbr[k] = t2;
  }
  created_.push_back(tri);
  created_.push_back(t2);

  TriId n1 = kNoTri, n2 = kNoTri;
  if (n != kNoTri) {
    TriRec& nr = tris_[n];
    const int jn = edge_index_of_nbr(nr, tri);
    assert(jn >= 0);
    const VertexId b = nr.v[jn];  // apex on the far side; n = (b, w, u)
    const TriId n_bw = nr.nbr[prev3(jn)];  // across (b, w)
    const SegId seg_bw = nr.seg[prev3(jn)];
    const TriId n_ub = nr.nbr[next3(jn)];  // across (u, b)
    const SegId seg_ub = nr.seg[next3(jn)];
    const bool inside_n = nr.inside != 0;
    const TriId nb2 = new_tri();
    TriRec& nr1 = tris_[n];   // reuse as (b, w, m); re-reference
    TriRec& nr2 = tris_[nb2];  // (b, m, u)
    nr1.v = {b, w, vm};
    nr1.seg = {id, kNoSeg, seg_bw};
    nr1.nbr = {t2, nb2, n_bw};
    nr2.v = {b, vm, u};
    nr2.seg = {id, seg_ub, kNoSeg};
    nr2.nbr = {tri, n_ub, n};
    set_inside(n, inside_n);
    set_inside(nb2, inside_n);
    if (n_ub != kNoTri) {
      const int k = edge_index_of_nbr(tris_[n_ub], n);
      if (k >= 0) tris_[n_ub].nbr[k] = nb2;
    }
    n1 = n;
    n2 = nb2;
    created_.push_back(n);
    created_.push_back(nb2);
    // Link the halves across the (sub)segment.
    tris_[tri].nbr[0] = nb2;  // (u, m) shared with nr2's (m, u)
    tris_[t2].nbr[0] = n;     // (m, w) shared with nr1's (w, m)
    vert_tri_[b] = n;
  }

  vert_tri_[a] = tri;
  vert_tri_[u] = tri;
  vert_tri_[w] = t2;
  vert_tri_[vm] = tri;

  legalize(vm, tri);
  legalize(vm, t2);
  if (n1 != kNoTri) {
    legalize(vm, n1);
    legalize(vm, n2);
  }

  split_log_.push_back(SplitEvent{id, m, vm, verts_[u], verts_[w]});
  return vm;
}

void Triangulation::classify(const std::vector<Point2>& hole_seeds) {
  for (TriId t = 0; t < tris_.size(); ++t) {
    if (tris_[t].alive) set_inside(t, true);
  }
  auto flood_outside = [this](TriId start) {
    if (start == kNoTri || !tris_[start].alive || !tris_[start].inside) return;
    std::vector<TriId> stack{start};
    set_inside(start, false);
    while (!stack.empty()) {
      const TriId t = stack.back();
      stack.pop_back();
      const TriRec& rec = tris_[t];
      for (int i = 0; i < 3; ++i) {
        const TriId n = rec.nbr[i];
        if (n == kNoTri || rec.seg[i] != kNoSeg) continue;
        if (tris_[n].alive && tris_[n].inside) {
          set_inside(n, false);
          stack.push_back(n);
        }
      }
    }
  };
  for (VertexId sv : super_) {
    flood_outside(vert_tri_[sv]);
  }
  for (const Point2& seed : hole_seeds) {
    flood_outside(locate(seed));
  }
}

Triangulation Triangulation::conforming(const Pslg& pslg) {
  Triangulation t(pslg.bounding_box());
  std::vector<VertexId> ids;
  ids.reserve(pslg.points.size());
  for (const Point2& p : pslg.points) {
    const InsertResult r = t.insert_point(p);
    switch (r.kind) {
      case InsertResult::Kind::kInserted:
        t.kinds_[r.vertex] = VertexKind::kInput;
        ids.push_back(r.vertex);
        break;
      case InsertResult::Kind::kDuplicate:
        ids.push_back(r.vertex);
        break;
      default:
        throw std::runtime_error(
            "Triangulation::conforming: input point on a constrained edge");
    }
  }
  for (std::size_t s = 0; s < pslg.segments.size(); ++s) {
    const auto [a, b] = pslg.segments[s];
    t.insert_segment(ids.at(a), ids.at(b), static_cast<SegId>(s));
  }
  t.classify(pslg.holes);
  return t;
}

void Triangulation::filter_inside_regions(
    const std::function<bool(const Point2&)>& keep) {
  std::vector<std::uint8_t> seen(tris_.size(), 0);
  for (TriId start = 0; start < tris_.size(); ++start) {
    if (seen[start] || !tris_[start].alive || !tris_[start].inside) continue;
    // Flood the region and find its largest triangle.
    std::vector<TriId> region;
    std::vector<TriId> stack{start};
    seen[start] = 1;
    TriId biggest = start;
    double biggest_area = -1.0;
    while (!stack.empty()) {
      const TriId t = stack.back();
      stack.pop_back();
      region.push_back(t);
      const TriRec& rec = tris_[t];
      const double area =
          0.5 * orient2d(verts_[rec.v[0]], verts_[rec.v[1]], verts_[rec.v[2]]);
      if (area > biggest_area) {
        biggest_area = area;
        biggest = t;
      }
      for (int i = 0; i < 3; ++i) {
        const TriId n = rec.nbr[i];
        if (n == kNoTri || rec.seg[i] != kNoSeg) continue;
        if (!seen[n] && tris_[n].alive && tris_[n].inside) {
          seen[n] = 1;
          stack.push_back(n);
        }
      }
    }
    const TriRec& big = tris_[biggest];
    const Point2 centroid{
        (verts_[big.v[0]].x + verts_[big.v[1]].x + verts_[big.v[2]].x) / 3.0,
        (verts_[big.v[0]].y + verts_[big.v[1]].y + verts_[big.v[2]].y) / 3.0};
    if (!keep(centroid)) {
      for (TriId t : region) set_inside(t, false);
    }
  }
}

std::string Triangulation::check_invariants() const {
  std::size_t alive = 0, inside = 0;
  for (TriId t = 0; t < tris_.size(); ++t) {
    const TriRec& rec = tris_[t];
    if (!rec.alive) continue;
    ++alive;
    if (rec.inside) ++inside;
    for (int i = 0; i < 3; ++i) {
      if (rec.v[i] >= verts_.size()) {
        return util::format("tri {} has invalid vertex index", t);
      }
    }
    if (orient2d(verts_[rec.v[0]], verts_[rec.v[1]], verts_[rec.v[2]]) <= 0.0) {
      return util::format("tri {} is not counterclockwise", t);
    }
    for (int i = 0; i < 3; ++i) {
      const TriId n = rec.nbr[i];
      if (n == kNoTri) continue;
      if (n >= tris_.size() || !tris_[n].alive) {
        return util::format("tri {} edge {} points to dead neighbor", t, i);
      }
      const int j = edge_index_of_nbr(tris_[n], t);
      if (j < 0) {
        return util::format("tri {} edge {} adjacency not symmetric", t, i);
      }
      if (tris_[n].seg[j] != rec.seg[i]) {
        return util::format("tri {} edge {} segment flag not symmetric", t, i);
      }
      // Shared edge must consist of the same two vertices.
      const VertexId a1 = rec.v[next3(i)], b1 = rec.v[prev3(i)];
      const VertexId a2 = tris_[n].v[next3(j)], b2 = tris_[n].v[prev3(j)];
      if (!((a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2))) {
        return util::format("tri {} edge {} vertex mismatch with neighbor", t, i);
      }
    }
  }
  if (alive != alive_count_) return "alive_count_ out of sync";
  if (inside != inside_count_) return "inside_count_ out of sync";
  for (VertexId v = 0; v < verts_.size(); ++v) {
    const TriId t = vert_tri_[v];
    if (t == kNoTri) continue;
    if (!tris_[t].alive) return util::format("vert_tri_[{}] dead", v);
    if (tris_[t].v[0] != v && tris_[t].v[1] != v && tris_[t].v[2] != v) {
      return util::format("vert_tri_[{}] not incident", v);
    }
  }
  return {};
}

bool Triangulation::is_delaunay() const {
  for (TriId t = 0; t < tris_.size(); ++t) {
    const TriRec& rec = tris_[t];
    if (!rec.alive) continue;
    for (int i = 0; i < 3; ++i) {
      const TriId n = rec.nbr[i];
      if (n == kNoTri || n < t || rec.seg[i] != kNoSeg) continue;
      const TriRec& nrec = tris_[n];
      const int j = edge_index_of_nbr(nrec, t);
      const VertexId apex = nrec.v[j];
      if (incircle(verts_[rec.v[0]], verts_[rec.v[1]], verts_[rec.v[2]],
                   verts_[apex]) > 0.0) {
        return false;
      }
    }
  }
  return true;
}

double Triangulation::min_inside_angle_deg() const {
  return inside_quality(0.0).min_angle_deg;
}

InsideQuality Triangulation::inside_quality(double goal_deg) const {
  InsideQuality q;
  const double below = goal_deg - 1e-9;
  // A triangle whose smallest angle exceeds t = max(minimum so far, below)
  // changes neither the minimum nor the count, so min_angle_deg() is
  // skipped when the law of cosines proves it. The smallest angle lies
  // opposite the shortest edge; with squared edge lengths s <= p, r its
  // cosine is (p + r - s) / (2 sqrt(p r)), positive because the angle is
  // at most 60 degrees. So it exceeds t < 89 degrees when
  // (p + r - s)^2 < 4 cos^2(t) p r. The 1e-6 relative margin dwarfs the
  // rounding of this test and of min_angle_deg(); where the products
  // underflow, rounding can only turn the test into a tie, which measures
  // the triangle. So does a zero-length edge, read as 0 degrees.
  double skip_coef = 0.0;  // 4 cos^2(t) (1 - 1e-6); 0 skips nothing
  const auto set_threshold = [&] {
    const double t = std::max(q.min_angle_deg, below);
    const double cos_t = std::cos(t * (kPi / 180.0));
    skip_coef = t < 89.0 ? 4.0 * cos_t * cos_t * (1.0 - 1e-6) : 0.0;
  };
  set_threshold();
  for_each_inside([&](TriId, const TriRec& rec) {
    const Point2& a = verts_[rec.v[0]];
    const Point2& b = verts_[rec.v[1]];
    const Point2& c = verts_[rec.v[2]];
    q.area += 0.5 * orient2d(a, b, c);
    double s = dist2(a, b), p = dist2(b, c), r = dist2(c, a);
    if (p < s) std::swap(s, p);
    if (r < s) std::swap(s, r);
    if (s > 0.0 && (p + r - s) * (p + r - s) < skip_coef * p * r) return;
    const double m = min_angle_deg(a, b, c);
    if (m < q.min_angle_deg) {
      q.min_angle_deg = m;
      set_threshold();
    }
    if (m < below) ++q.below_goal;
  });
  return q;
}

void Triangulation::serialize(util::ByteWriter& out) const {
  out.write_vector(verts_);
  out.write_vector(kinds_);
  out.write_vector(vert_tri_);
  out.write_vector(tris_);
  out.write_vector(free_tris_);
  out.write<std::uint64_t>(alive_count_);
  out.write<std::uint64_t>(inside_count_);
  out.write(super_);
  out.write(last_located_);
}

Triangulation Triangulation::deserialized(util::ByteReader& in) {
  Triangulation t;
  t.verts_ = in.read_vector<Point2>();
  t.kinds_ = in.read_vector<VertexKind>();
  t.vert_tri_ = in.read_vector<TriId>();
  t.tris_ = in.read_vector<TriRec>();
  t.free_tris_ = in.read_vector<TriId>();
  t.alive_count_ = in.read<std::uint64_t>();
  t.inside_count_ = in.read<std::uint64_t>();
  t.super_ = in.read<std::array<VertexId, 3>>();
  t.last_located_ = in.read<TriId>();
  return t;
}

std::size_t Triangulation::footprint_bytes() const {
  return verts_.capacity() * sizeof(Point2) + kinds_.capacity() +
         vert_tri_.capacity() * sizeof(TriId) +
         tris_.capacity() * sizeof(TriRec) +
         free_tris_.capacity() * sizeof(TriId) + sizeof(*this);
}

void CompactMesh::serialize(util::ByteWriter& out) const {
  out.write_vector(verts);
  out.write_vector(tris);
}

CompactMesh CompactMesh::deserialized(util::ByteReader& in) {
  CompactMesh m;
  m.verts = in.read_vector<Point2>();
  m.tris = in.read_vector<std::array<std::uint32_t, 3>>();
  return m;
}

CompactMesh extract_inside(const Triangulation& t) {
  CompactMesh m;
  std::unordered_map<VertexId, std::uint32_t> remap;
  t.for_each_inside([&](TriId, const TriRec& rec) {
    std::array<std::uint32_t, 3> tri;
    for (int i = 0; i < 3; ++i) {
      auto [it, inserted] = remap.try_emplace(
          rec.v[i], static_cast<std::uint32_t>(m.verts.size()));
      if (inserted) m.verts.push_back(t.point(rec.v[i]));
      tri[i] = it->second;
    }
    m.tris.push_back(tri);
  });
  return m;
}

}  // namespace mrts::mesh

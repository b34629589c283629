#pragma once

// Constrained/conforming Delaunay triangulation with cavity-based
// (Bowyer-Watson) point insertion, built for guaranteed-quality refinement:
//   - a super-triangle bounds the domain; real vertices are strictly inside;
//   - point location walks from a hint using robust orientation tests;
//   - insertion carves the circumcircle cavity, never crossing constrained
//     (segment) edges, then stars the new vertex;
//   - input segments are recovered conformingly: a missing segment is split
//     at its midpoint until every subsegment is a Delaunay edge;
//   - subsegments carry the id of the input segment they subdivide, and
//     every split of an identified segment is logged so distributed meshers
//     (PCDM-style) can mirror splits onto neighbouring subdomains;
//   - triangles are classified inside/outside by flood fill from the super
//     triangle and from hole seeds, stopping at constrained edges.
//
// The structure is fully serializable (used when a mesh subdomain is a
// mobile object that swaps to disk).

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "mesh/geom.hpp"
#include "mesh/pslg.hpp"
#include "util/archive.hpp"

namespace mrts::mesh {

using VertexId = std::uint32_t;
using TriId = std::uint32_t;
using SegId = std::uint32_t;

inline constexpr TriId kNoTri = std::numeric_limits<TriId>::max();
inline constexpr SegId kNoSeg = std::numeric_limits<SegId>::max();
inline constexpr VertexId kNoVertex = std::numeric_limits<VertexId>::max();

enum class VertexKind : std::uint8_t {
  kFree = 0,     // inserted by refinement in the interior
  kInput = 1,    // PSLG input point
  kSegment = 2,  // lies on a constrained segment
  kSuper = 3,    // super-triangle corner
};

struct TriRec {
  std::array<VertexId, 3> v{kNoVertex, kNoVertex, kNoVertex};
  /// nbr[i] is across the edge opposite v[i] (edge v[i+1]-v[i+2]).
  std::array<TriId, 3> nbr{kNoTri, kNoTri, kNoTri};
  /// seg[i] != kNoSeg marks the edge opposite v[i] as constrained, carrying
  /// the id of the input segment it subdivides.
  std::array<SegId, 3> seg{kNoSeg, kNoSeg, kNoSeg};
  std::uint8_t alive = 1;
  std::uint8_t inside = 1;
  /// Always 0. Names the two bytes that would otherwise be padding, so the
  /// raw records serialize without indeterminate bytes.
  std::uint16_t spare = 0;
};
static_assert(sizeof(TriRec) == 40);
static_assert(std::has_unique_object_representations_v<TriRec>);

struct InsertResult {
  enum class Kind {
    kInserted,
    kDuplicate,          // an existing vertex coincides with the point
    kOnConstrainedEdge,  // the point lies on a constrained edge: split it
    kBlocked,            // guard found encroached segments (see refiner)
  };
  Kind kind = Kind::kInserted;
  VertexId vertex = kNoVertex;
  TriId tri = kNoTri;  // for kDuplicate/kOnConstrainedEdge context
  int edge = -1;       // for kOnConstrainedEdge
};

/// A subsegment recorded as (triangle, edge-index) plus its endpoints; used
/// by the refiner's encroachment queue.
struct SubSegment {
  TriId tri = kNoTri;
  int edge = -1;
};

/// One split of an identified segment: which input segment, the subsegment
/// endpoints that were split, the split point, and the vertex created there.
struct SplitEvent {
  SegId seg = kNoSeg;
  Point2 point;
  VertexId vertex = kNoVertex;
  Point2 end_a;
  Point2 end_b;
};

/// Quality of the inside triangles, gathered in one pass in TriId order.
struct InsideQuality {
  double area = 0.0;             // sum of 0.5 * orient2d(a, b, c)
  double min_angle_deg = 180.0;  // 180 when there are no inside triangles
  std::size_t below_goal = 0;    // triangles whose min angle < goal - 1e-9
};

class Triangulation {
 public:
  /// Builds the super-triangle around `bounds` (expanded by a safety
  /// factor). All inserted points must lie inside `bounds`.
  explicit Triangulation(const Rect& bounds);

  /// Constructs the conforming Delaunay triangulation of a PSLG: inserts
  /// input points, recovers all segments (assigning SegId = index into
  /// pslg.segments), and classifies inside/outside using the hole seeds.
  static Triangulation conforming(const Pslg& pslg);

  // --- queries ---------------------------------------------------------------

  [[nodiscard]] std::size_t vertex_count() const { return verts_.size(); }
  [[nodiscard]] const Point2& point(VertexId v) const { return verts_[v]; }
  [[nodiscard]] VertexKind kind(VertexId v) const { return kinds_[v]; }
  [[nodiscard]] const TriRec& tri(TriId t) const { return tris_[t]; }
  [[nodiscard]] std::size_t tri_slots() const { return tris_.size(); }
  [[nodiscard]] std::size_t alive_triangles() const { return alive_count_; }
  /// Triangles classified inside the domain.
  [[nodiscard]] std::size_t inside_triangles() const { return inside_count_; }

  /// Walks from `hint` to the triangle containing p (ties broken towards
  /// lower-index edges; p must be inside the super-triangle).
  [[nodiscard]] TriId locate(const Point2& p, TriId hint = kNoTri) const;

  struct BarrierLocate {
    TriId tri = kNoTri;
    bool blocked = false;  // walk hit a constrained edge before reaching p
    int edge = -1;         // the constrained edge of `tri` that was hit
  };

  /// Like locate, but stops at the first constrained edge the walk would
  /// cross. Used by refinement: a circumcenter separated from its triangle
  /// by a subsegment means that subsegment must be split instead (it also
  /// keeps runaway circumcenters of very flat triangles from walking past
  /// the super-triangle).
  [[nodiscard]] BarrierLocate locate_stopping_at_segments(const Point2& p,
                                                          TriId hint) const;

  /// Returns the triangle having directed edge (a, b), with its edge index,
  /// or nullopt if (a, b) is not an edge. O(degree of a).
  [[nodiscard]] std::optional<std::pair<TriId, int>> find_edge(
      VertexId a, VertexId b) const;

  // --- construction ------------------------------------------------------------

  /// Delaunay-inserts a point. When `guard_segments` is true and the cavity
  /// boundary contains a constrained edge whose diametral circle contains p,
  /// nothing is inserted, kBlocked is returned, and the offending
  /// subsegments are appended to `blocked_out`.
  InsertResult insert_point(const Point2& p, TriId hint = kNoTri,
                            bool guard_segments = false,
                            std::vector<SubSegment>* blocked_out = nullptr);

  /// Inserts input segment (a, b) as a true constrained edge under id `id`
  /// (no Steiner points: crossed triangles are removed and the two
  /// pseudo-polygons retriangulated). Vertices lying exactly on the segment
  /// split it at those vertices.
  void insert_segment(VertexId a, VertexId b, SegId id);

  /// Splits the constrained edge `edge` of `tri` at its midpoint; returns
  /// the new vertex. The split is appended to the split log.
  VertexId split_subsegment(TriId tri, int edge);

  /// Marks outside triangles: flood from the super corners and from each
  /// hole seed, without crossing constrained edges.
  void classify(const std::vector<Point2>& hole_seeds);

  // --- refinement support ----------------------------------------------------

  /// Triangles created by the most recent insert/split (the star around the
  /// new vertex). Valid until the next mutation.
  [[nodiscard]] const std::vector<TriId>& last_created() const {
    return created_;
  }

  /// Splits of identified segments since the last drain, in the order they
  /// happened.
  [[nodiscard]] std::vector<SplitEvent> drain_split_log() {
    return std::move(split_log_);
  }

  /// Region-based reclassification: floods maximal groups of inside
  /// triangles not separated by constrained edges and keeps a region only
  /// if `keep` accepts the centroid of its largest triangle. Used by
  /// subdomain meshes to drop regions outside the global domain.
  void filter_inside_regions(const std::function<bool(const Point2&)>& keep);

  void set_vertex_kind(VertexId v, VertexKind k) { kinds_[v] = k; }

  // --- integrity / stats -------------------------------------------------------

  /// Validates structural invariants (adjacency symmetry, orientation,
  /// liveness, constrained-edge symmetry). Returns an explanation of the
  /// first violation, or empty string if consistent.
  [[nodiscard]] std::string check_invariants() const;

  /// True if the empty-circumcircle property holds for every pair of
  /// adjacent alive triangles not separated by a constrained edge.
  [[nodiscard]] bool is_delaunay() const;

  /// Smallest interior angle over inside triangles, in degrees.
  [[nodiscard]] double min_inside_angle_deg() const;

  /// Area, smallest angle and below-goal count of the inside triangles:
  /// one orient2d() per triangle, and one min_angle_deg() per triangle that
  /// could lower the minimum or fall below the goal. The result is the same
  /// as measuring every triangle.
  [[nodiscard]] InsideQuality inside_quality(double goal_deg) const;

  // --- serialization -------------------------------------------------------------

  void serialize(util::ByteWriter& out) const;
  static Triangulation deserialized(util::ByteReader& in);

  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Iterates alive inside triangles: fn(TriId, const TriRec&).
  template <typename Fn>
  void for_each_inside(Fn&& fn) const {
    for (TriId t = 0; t < tris_.size(); ++t) {
      if (tris_[t].alive && tris_[t].inside) fn(t, tris_[t]);
    }
  }

 private:
  Triangulation() = default;

  VertexId new_vertex(const Point2& p, VertexKind k);
  TriId new_tri();
  /// Flips the unconstrained edge `i` of `t` shared with its neighbour;
  /// both triangle slots are reused. Requires the surrounding quad be
  /// strictly convex (true when flipping a locally non-Delaunay edge).
  void flip_edge(TriId t, int i);
  /// Lawson legalization around vertex m starting from triangle `t`
  /// (which must be incident to m).
  void legalize(VertexId m, TriId t);
  /// Recursive helper of insert_segment (Anglada's algorithm). Triangles
  /// are created with vertices set but adjacency unstitched.
  void triangulate_pseudo_polygon(VertexId a, VertexId e,
                                  std::span<const VertexId> chain,
                                  std::vector<TriId>& out, bool inside);
  void kill_tri(TriId t);
  void set_inside(TriId t, bool inside);
  [[nodiscard]] bool has_super_vertex(const TriRec& t) const;
  [[nodiscard]] int edge_index_of_nbr(const TriRec& t, TriId n) const;

  /// One directed edge of the cavity boundary: (a, b) CCW around the
  /// cavity, the outer neighbor across it, its constraint id, and the
  /// inside-flag of the cavity triangle that contributed it (so region
  /// classification survives insertions whose cavity spans a just-
  /// unconstrained boundary, as in split_subsegment).
  struct CavityEdge {
    VertexId a;
    VertexId b;
    TriId outer;
    SegId seg;
    bool inside;
  };

  /// Buffers of one insertion, reused by every insertion on the calling
  /// thread (defined in the .cpp). They live outside the object, so they
  /// never grow footprint_bytes(), copies or the serialized form.
  struct CavityScratch;
  static CavityScratch& cavity_scratch();

  /// Collects the insertion cavity of p starting at triangle t0 into
  /// s.cavity and s.boundary.
  void build_cavity(const Point2& p, TriId t0, CavityScratch& s) const;

  /// Replaces the cavity in `s` with a star around the new vertex; links
  /// the star in time linear in the cavity boundary.
  void star_cavity(VertexId v, CavityScratch& s);

  std::vector<Point2> verts_;
  std::vector<VertexKind> kinds_;
  std::vector<TriId> vert_tri_;  // some alive triangle incident to vertex
  std::vector<TriRec> tris_;
  std::vector<TriId> free_tris_;
  std::vector<TriId> created_;
  std::vector<SplitEvent> split_log_;
  std::size_t alive_count_ = 0;
  std::size_t inside_count_ = 0;
  mutable TriId last_located_ = 0;
  std::array<VertexId, 3> super_{kNoVertex, kNoVertex, kNoVertex};
};

/// Compact, renumbered copy of the inside triangles (vertices referenced by
/// at least one inside triangle). The exchange format between subdomain
/// meshes and the serialization payload of mesh mobile objects.
struct CompactMesh {
  std::vector<Point2> verts;
  std::vector<std::array<std::uint32_t, 3>> tris;

  [[nodiscard]] std::size_t footprint_bytes() const {
    return verts.size() * sizeof(Point2) + tris.size() * 12 + sizeof(*this);
  }
  void serialize(util::ByteWriter& out) const;
  static CompactMesh deserialized(util::ByteReader& in);
};

CompactMesh extract_inside(const Triangulation& t);

}  // namespace mrts::mesh

#pragma once

// Ruppert-style guaranteed-quality Delaunay refinement over a conforming
// triangulation:
//   - encroached subsegments (a vertex strictly inside the diametral
//     circle) are split at their midpoint, first;
//   - poor triangles (radius-edge ratio above the bound derived from the
//     minimum-angle goal, or larger than the sizing field allows) get their
//     circumcenter inserted — unless the circumcenter would encroach a
//     subsegment, in which case that subsegment is split instead;
//   - refinement proceeds until no inside triangle is poor and no
//     subsegment is encroached.
//
// Distributed meshing support: the triangulation's split log records every
// subsegment split so subdomain owners can mirror boundary splits onto
// their neighbours (the PCDM protocol), and `RefineLimits::max_new_vertices`
// lets a caller refine in bounded slices (the NUPDR leaf budget).

#include <deque>
#include <functional>
#include <optional>

#include "mesh/triangulation.hpp"

namespace mrts::mesh {

/// Target element size as a function of position; values <= 0 or an empty
/// function mean "no size constraint". The refiner may call it any number
/// of times per triangle, so it must be a pure function of position.
using SizeField = std::function<double(const Point2&)>;

/// Uniform sizing: h everywhere.
SizeField uniform_size(double h);

/// Graded sizing: h_near within `r0` of `focus`, growing linearly with
/// distance to h_far at `r1` and beyond. The classic "fine near a feature"
/// field used by the non-uniform experiments.
SizeField graded_size(Point2 focus, double h_near, double h_far, double r0,
                      double r1);

struct RefineOptions {
  /// Minimum-angle goal in degrees. Termination is guaranteed below
  /// ~20.7 degrees; the default stays under that bound.
  double min_angle_deg = 20.0;
  SizeField size_field{};  // optional
};

struct RefineLimits {
  /// Stop after this many successful vertex insertions (0 = unlimited).
  std::size_t max_new_vertices = 0;
  /// Hard safety cap on total vertices; exceeding it throws.
  std::size_t vertex_cap = 50'000'000;
};

struct RefineResult {
  std::size_t vertices_inserted = 0;
  std::size_t segment_splits = 0;
  /// False when max_new_vertices stopped refinement before the mesh was
  /// fully conforming to the quality/size goals.
  bool complete = true;
};

class DelaunayRefiner {
 public:
  DelaunayRefiner(Triangulation& tri, RefineOptions options);

  /// Runs refinement to completion (or to the limits).
  RefineResult refine(const RefineLimits& limits = {});

  /// True if the triangle violates the quality or size criteria.
  [[nodiscard]] bool is_poor(const TriRec& rec) const;

  /// Re-scans the whole triangulation and enqueues existing poor triangles
  /// and encroached segments. Called by the constructor; call again after
  /// external mutations (e.g. mirrored boundary splits).
  void rescan();

 private:
  /// is_poor(); `cc`, when not null, is the circumcenter of `rec`, so the
  /// radius-edge test need not compute it again.
  [[nodiscard]] bool is_poor(const TriRec& rec, const Point2* cc) const;
  [[nodiscard]] bool seg_encroached(TriId t, int edge) const;
  /// Queues the encroached subsegments of triangle t, then t itself if it
  /// is inside and poor. The one per-triangle check of rescan() and
  /// enqueue_created().
  void enqueue(TriId t);
  void enqueue_created();
  /// Processes one encroached segment; returns vertices added (0 or 1).
  std::size_t process_segment_queue_entry();
  /// Processes one poor triangle; returns vertices added.
  std::size_t process_triangle_queue_entry();

  Triangulation& tri_;
  RefineOptions options_;
  double ratio_bound2_;  // squared radius-edge ratio bound

  // Queues hold (triangle, edge) and triangle handles; entries are
  // re-validated when popped (triangles die as cavities are carved).
  std::deque<SubSegment> seg_queue_;
  std::deque<TriId> tri_queue_;
  /// Subsegments that blocked the current triangle's insertion; cleared per
  /// entry and kept so its buffer is reused.
  std::vector<SubSegment> blocked_;
  std::size_t splits_ = 0;
};

/// Convenience: conforming triangulation of `pslg` refined to `options`.
Triangulation refine_pslg(const Pslg& pslg, const RefineOptions& options);

}  // namespace mrts::mesh

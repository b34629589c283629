#pragma once

// Shared problem/statistics types for the parallel unstructured mesh
// generation (PUMG) methods, plus the sequential baseline and cross-cell
// conformity checking used by tests and benchmarks.

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/refine.hpp"
#include "pumg/decomposition.hpp"
#include "pumg/subdomain.hpp"

namespace mrts::pumg {

struct MeshProblem {
  mesh::Pslg domain;
  mesh::RefineOptions refine;
};

struct MeshRunStats {
  std::size_t elements = 0;       // inside triangles over all cells
  std::size_t vertices = 0;       // total vertices (with border duplicates)
  std::size_t cells = 0;
  double min_angle_deg = 180.0;
  /// Quality goal used when counting below_goal (set by the driver).
  double quality_goal_deg = 0.0;
  /// Triangles below the quality goal. Ruppert-style refinement cannot
  /// guarantee the bound near small angles between constrained segments
  /// (including decomposition borders crossing the domain boundary at
  /// sharp angles); a healthy run has a tiny count confined to those spots.
  std::size_t below_goal = 0;
  double total_area = 0.0;
  double wall_seconds = 0.0;
  std::size_t boundary_splits_exchanged = 0;
  std::size_t rounds = 0;  // phases (UPDR) or scheduling turns (NUPDR/PCDM)

  [[nodiscard]] std::string summary() const;
};

/// Sequential guaranteed-quality baseline: one triangulation, no
/// decomposition. The correctness reference for all parallel methods.
MeshRunStats run_sequential(const MeshProblem& problem,
                            mesh::Triangulation* out = nullptr);

/// One cell's share of MeshRunStats, measured in a single pass over its
/// inside triangles (mesh::Triangulation::inside_quality).
struct CellStats {
  std::size_t elements = 0;
  std::size_t vertices = 0;
  mesh::InsideQuality quality;
};

/// Measures one cell's triangulation; below_goal counts against goal_deg.
CellStats cell_stats(const mesh::Triangulation& tri, double goal_deg);

/// Adds one cell's share. Callers add cells in cell-index order, so
/// total_area is summed in the same order by every driver.
void accumulate_stats(MeshRunStats& stats, const CellStats& cell);

/// Measures a finished subdomain against stats.quality_goal_deg and adds it.
void accumulate_stats(MeshRunStats& stats, const Subdomain& sub);

/// Verifies that every pair of adjacent cells agrees exactly on the shared
/// border discretization. Returns an explanation of the first mismatch, or
/// an empty string when fully conforming.
std::string check_conformity(const Decomposition& decomp,
                             const std::vector<Subdomain>& subs);

}  // namespace mrts::pumg

// Tests for the in-core PUMG methods: subdomain construction, cross-cell
// conformity, agreement with the sequential baseline, and the three
// parallel drivers (UPDR / NUPDR / PCDM).

#include <gtest/gtest.h>

#include <cstring>

#include "pumg/method.hpp"
#include "pumg/nupdr.hpp"
#include "pumg/pcdm.hpp"
#include "pumg/updr.hpp"

namespace mrts::pumg {
namespace {

using mesh::Point2;
using mesh::Rect;

MeshProblem square_problem(double h) {
  return MeshProblem{mesh::make_unit_square(),
                     {.min_angle_deg = 20.0, .size_field = mesh::uniform_size(h)}};
}

MeshProblem pipe_problem(double h) {
  return MeshProblem{mesh::make_pipe_section(1.0, 0.45, 48),
                     {.min_angle_deg = 20.0, .size_field = mesh::uniform_size(h)}};
}

MeshProblem graded_pipe_problem() {
  return MeshProblem{
      mesh::make_pipe_section(1.0, 0.45, 48),
      {.min_angle_deg = 20.0,
       .size_field = mesh::graded_size({0.0, 1.0}, 0.015, 0.15, 0.2, 1.2)}};
}

TEST(ClipSnapped, CrossingPointsAreBitwiseSharedBetweenCells) {
  // Two cells sharing the line x = c; a segment crossing it must clip to
  // the exact same crossing point from both sides.
  const double c = 0.537;
  const Rect left{0.0, 0.0, c, 1.0};
  const Rect right{c, 0.0, 1.1, 1.0};
  const Point2 a{0.1, 0.2}, b{1.05, 0.93};
  const auto ca = clip_segment_snapped(a, b, left);
  const auto cb = clip_segment_snapped(a, b, right);
  ASSERT_TRUE(ca && cb);
  EXPECT_EQ(ca->second.x, c);           // snapped exactly
  EXPECT_EQ(cb->first.x, c);
  EXPECT_TRUE(ca->second == cb->first);  // bitwise identical
}

TEST(Subdomain, SingleCellCoversWholeDomain) {
  const auto problem = square_problem(0.1);
  const auto decomp = make_grid(problem.domain, 1, 1);
  Subdomain sub(problem.domain, decomp.cells[0].rect,
                decomp.cells[0].extra_border_points);
  auto outcome = sub.refine(problem.refine);
  EXPECT_TRUE(outcome.result.complete);
  EXPECT_NEAR(sub.inside_area(), 1.0, 1e-9);
  EXPECT_GE(sub.min_inside_angle_deg(), 20.0);
  EXPECT_TRUE(sub.tri().check_invariants().empty());
}

TEST(Subdomain, TwoCellsMirrorSplitsUntilConforming) {
  const auto problem = square_problem(0.15);
  const auto decomp = make_grid(problem.domain, 2, 1);
  std::vector<Subdomain> subs;
  for (int i = 0; i < 2; ++i) {
    subs.emplace_back(problem.domain, decomp.cells[i].rect,
                      decomp.cells[i].extra_border_points);
  }
  // Manual exchange loop; splits on the decomposition boundary have no
  // neighbour and are dropped, like in the real drivers.
  std::vector<std::vector<BoundarySplit>> inbox(2);
  auto route = [&](std::uint32_t origin, const BoundarySplit& s) {
    const auto target = decomp.neighbor_for(origin, s.side, s.m);
    if (target) inbox[*target].push_back(s);
    return target.has_value();
  };
  for (std::uint32_t i = 0; i < 2; ++i) {
    for (const auto& s : subs[i].initial_splits()) route(i, s);
  }
  bool any = true;
  int rounds = 0;
  while (any && rounds < 50) {
    any = false;
    ++rounds;
    for (std::uint32_t i = 0; i < 2; ++i) {
      for (const auto& s : inbox[i]) subs[i].apply_mirror_split(s);
      inbox[i].clear();
      auto outcome = subs[i].refine(problem.refine);
      for (const auto& s : outcome.splits) {
        if (route(i, s)) any = true;
      }
    }
  }
  ASSERT_LT(rounds, 50);
  EXPECT_TRUE(check_conformity(decomp, subs).empty())
      << check_conformity(decomp, subs);
  EXPECT_NEAR(subs[0].inside_area() + subs[1].inside_area(), 1.0, 1e-9);
}

// The statistics formulas as they were before the one-pass kernel, kept
// verbatim as the reference: per subdomain, one area pass, one smallest-
// angle pass and one below-goal pass.
double three_pass_area(const mesh::Triangulation& t) {
  double area = 0.0;
  t.for_each_inside([&](mesh::TriId, const mesh::TriRec& rec) {
    area += 0.5 * mesh::orient2d(t.point(rec.v[0]), t.point(rec.v[1]),
                                 t.point(rec.v[2]));
  });
  return area;
}

double three_pass_min_angle(const mesh::Triangulation& t) {
  double best = 180.0;
  t.for_each_inside([&](mesh::TriId, const mesh::TriRec& rec) {
    best = std::min(best, mesh::min_angle_deg(t.point(rec.v[0]),
                                              t.point(rec.v[1]),
                                              t.point(rec.v[2])));
  });
  return best;
}

std::size_t three_pass_below_goal(const mesh::Triangulation& t,
                                  double goal_deg) {
  std::size_t below = 0;
  t.for_each_inside([&](mesh::TriId, const mesh::TriRec& rec) {
    if (mesh::min_angle_deg(t.point(rec.v[0]), t.point(rec.v[1]),
                            t.point(rec.v[2])) < goal_deg - 1e-9) {
      ++below;
    }
  });
  return below;
}

void three_pass_accumulate(MeshRunStats& stats, const Subdomain& sub) {
  stats.elements += sub.inside_elements();
  stats.vertices += sub.tri().vertex_count();
  stats.total_area += three_pass_area(sub.tri());
  if (sub.inside_elements() > 0) {
    stats.min_angle_deg =
        std::min(stats.min_angle_deg, three_pass_min_angle(sub.tri()));
  }
  if (stats.quality_goal_deg > 0.0) {
    stats.below_goal += three_pass_below_goal(sub.tri(), stats.quality_goal_deg);
  }
  ++stats.cells;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Sequential, BaselineProducesQualityMesh) {
  const auto stats = run_sequential(square_problem(0.05));
  EXPECT_GT(stats.elements, 300u);
  EXPECT_GE(stats.min_angle_deg, 20.0);
  EXPECT_NEAR(stats.total_area, 1.0, 1e-9);
}

TEST(Sequential, BaselineCountsBelowGoal) {
  const auto problem = pipe_problem(0.08);
  mesh::Triangulation tri{Rect{0, 0, 1, 1}};
  const auto stats = run_sequential(problem, &tri);
  EXPECT_EQ(stats.quality_goal_deg, 20.0);
  EXPECT_EQ(stats.below_goal, three_pass_below_goal(tri, 20.0));
  EXPECT_EQ(stats.elements, tri.inside_triangles());
  EXPECT_TRUE(same_bits(stats.total_area, three_pass_area(tri)));
  EXPECT_TRUE(same_bits(stats.min_angle_deg, three_pass_min_angle(tri)));
}

TEST(MethodStats, OnePassMatchesThreePassFormulas) {
  const auto problem = pipe_problem(0.08);
  auto pool = tasking::make_pool(tasking::PoolBackend::kWorkStealing, 2);
  struct Run {
    const char* method;
    MeshRunStats returned;
    std::vector<Subdomain> subs;
  };
  std::vector<Run> runs(3);
  runs[0].method = "pcdm";
  runs[0].returned =
      run_pcdm(problem, PcdmConfig{.strips = 6}, *pool, &runs[0].subs);
  runs[1].method = "updr";
  runs[1].returned =
      run_updr(problem, UpdrConfig{.nx = 3, .ny = 3}, *pool, &runs[1].subs);
  runs[2].method = "nupdr";
  runs[2].returned = run_nupdr(
      problem, NupdrConfig{.leaf_element_budget = 300}, *pool, &runs[2].subs);
  for (const Run& run : runs) {
    for (const double goal : {20.0, 33.0}) {
      SCOPED_TRACE(::testing::Message() << run.method << " at " << goal);
      MeshRunStats one, three;
      one.quality_goal_deg = three.quality_goal_deg = goal;
      for (const Subdomain& sub : run.subs) {
        accumulate_stats(one, sub);
        three_pass_accumulate(three, sub);
      }
      EXPECT_EQ(one.elements, three.elements);
      EXPECT_EQ(one.vertices, three.vertices);
      EXPECT_EQ(one.cells, three.cells);
      EXPECT_EQ(one.below_goal, three.below_goal);
      EXPECT_TRUE(same_bits(one.total_area, three.total_area));
      EXPECT_TRUE(same_bits(one.min_angle_deg, three.min_angle_deg));
      if (goal == problem.refine.min_angle_deg) {
        // The driver's own statistics come from the same kernel.
        EXPECT_EQ(run.returned.elements, three.elements);
        EXPECT_EQ(run.returned.below_goal, three.below_goal);
        EXPECT_TRUE(same_bits(run.returned.total_area, three.total_area));
        EXPECT_TRUE(
            same_bits(run.returned.min_angle_deg, three.min_angle_deg));
      } else {
        EXPECT_GT(three.below_goal, 0u);  // the count path is exercised
      }
    }
  }
}

class MethodTest : public ::testing::TestWithParam<tasking::PoolBackend> {
 protected:
  std::unique_ptr<tasking::TaskPool> pool_ =
      tasking::make_pool(GetParam(), 4);
};

TEST_P(MethodTest, UpdrMatchesSequentialAreaAndQuality) {
  const auto problem = square_problem(0.05);
  std::vector<Subdomain> subs;
  Decomposition decomp;
  const auto stats =
      run_updr(problem, UpdrConfig{.nx = 3, .ny = 3}, *pool_, &subs, &decomp);
  EXPECT_EQ(stats.cells, 9u);
  EXPECT_NEAR(stats.total_area, 1.0, 1e-9);
  EXPECT_GE(stats.min_angle_deg, 20.0);
  EXPECT_TRUE(check_conformity(decomp, subs).empty())
      << check_conformity(decomp, subs);
  for (const auto& sub : subs) {
    EXPECT_TRUE(sub.tri().check_invariants().empty());
  }
  // Element count comparable to the sequential baseline (decomposition
  // overhead inflates it moderately).
  const auto seq = run_sequential(problem);
  EXPECT_GT(stats.elements, seq.elements / 2);
  EXPECT_LT(stats.elements, seq.elements * 3);
}

TEST_P(MethodTest, PcdmStripsConformAndCoverPipe) {
  const auto problem = pipe_problem(0.08);
  std::vector<Subdomain> subs;
  Decomposition decomp;
  const auto stats =
      run_pcdm(problem, PcdmConfig{.strips = 5}, *pool_, &subs, &decomp);
  EXPECT_EQ(stats.cells, 5u);
  const double annulus = 3.14159265 * (1.0 - 0.45 * 0.45);
  EXPECT_NEAR(stats.total_area, annulus, 0.05 * annulus);
  EXPECT_GE(stats.min_angle_deg, 15.0);
  EXPECT_LE(stats.below_goal, stats.elements / 200);
  EXPECT_TRUE(check_conformity(decomp, subs).empty())
      << check_conformity(decomp, subs);
  EXPECT_GT(stats.boundary_splits_exchanged, 0u);
}

TEST_P(MethodTest, NupdrGradedQuadtreeConforms) {
  const auto problem = graded_pipe_problem();
  std::vector<Subdomain> subs;
  Decomposition decomp;
  const auto stats = run_nupdr(
      problem, NupdrConfig{.leaf_element_budget = 300}, *pool_, &subs,
      &decomp);
  EXPECT_GT(stats.cells, 4u);  // grading must have split the tree
  const double annulus = 3.14159265 * (1.0 - 0.45 * 0.45);
  EXPECT_NEAR(stats.total_area, annulus, 0.05 * annulus);
  EXPECT_GE(stats.min_angle_deg, 15.0);
  EXPECT_LE(stats.below_goal, stats.elements / 200);
  EXPECT_TRUE(check_conformity(decomp, subs).empty())
      << check_conformity(decomp, subs);
}

INSTANTIATE_TEST_SUITE_P(Pools, MethodTest,
                         ::testing::Values(tasking::PoolBackend::kWorkStealing,
                                           tasking::PoolBackend::kCentralQueue),
                         [](const auto& info) {
                           return info.param ==
                                          tasking::PoolBackend::kWorkStealing
                                      ? "WorkStealing"
                                      : "CentralQueue";
                         });

TEST(Methods, UpdrDeterministicAcrossPoolSizes) {
  const auto problem = square_problem(0.07);
  auto pool1 = tasking::make_pool(tasking::PoolBackend::kWorkStealing, 1);
  auto pool4 = tasking::make_pool(tasking::PoolBackend::kWorkStealing, 4);
  const auto s1 = run_updr(problem, UpdrConfig{.nx = 2, .ny = 2}, *pool1);
  const auto s4 = run_updr(problem, UpdrConfig{.nx = 2, .ny = 2}, *pool4);
  // BSP structure makes UPDR's result independent of worker count.
  EXPECT_EQ(s1.elements, s4.elements);
  EXPECT_EQ(s1.boundary_splits_exchanged, s4.boundary_splits_exchanged);
}

TEST(Methods, QuadtreeAdaptsToGrading) {
  const auto graded = mesh::graded_size({0.0, 0.0}, 0.01, 0.2, 0.05, 1.0);
  const auto d = make_quadtree(mesh::make_rectangle(Rect{-1, -1, 1, 1}),
                               graded, 150);
  ASSERT_GT(d.size(), 4u);
  // Leaves near the focus must be smaller than far leaves.
  double near_min = 1e9, far_max = 0.0;
  for (const auto& c : d.cells) {
    const double size = std::max(c.rect.width(), c.rect.height());
    const double dc = mesh::dist(c.rect.center(), {0, 0});
    if (dc < 0.3) near_min = std::min(near_min, size);
    if (dc > 1.0) far_max = std::max(far_max, size);
  }
  EXPECT_LT(near_min, far_max);
}

TEST(Methods, GridNeighborsAreSymmetric) {
  const auto d = make_grid(mesh::make_unit_square(), 4, 3);
  ASSERT_EQ(d.size(), 12u);
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    for (int side = 0; side < 4; ++side) {
      for (std::uint32_t j : d.cells[i].neighbors[side]) {
        const auto& back = d.cells[j].neighbors[opposite(static_cast<Side>(side))];
        EXPECT_NE(std::find(back.begin(), back.end(), i), back.end())
            << "asymmetric adjacency " << i << "<->" << j;
      }
    }
  }
  // Interior cell has 4 neighbours, corner cell 2.
  std::size_t total_adjacency = 0;
  for (const auto& c : d.cells) {
    for (const auto& nb : c.neighbors) total_adjacency += nb.size();
  }
  EXPECT_EQ(total_adjacency, 2u * (3 * 3 + 2 * 4));  // 2 * #internal borders
}

}  // namespace
}  // namespace mrts::pumg

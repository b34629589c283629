// Tests for guaranteed-quality refinement: minimum-angle bound, sizing
// fields, encroachment handling, parameterized sweeps over domains and
// quality goals, and the bounded-slice refinement used by NUPDR.

#include <gtest/gtest.h>

#include "mesh/refine.hpp"

namespace mrts::mesh {
namespace {

double inside_area(const Triangulation& t) {
  double area = 0.0;
  t.for_each_inside([&](TriId, const TriRec& rec) {
    area += 0.5 * orient2d(t.point(rec.v[0]), t.point(rec.v[1]),
                           t.point(rec.v[2]));
  });
  return area;
}

TEST(Refine, SquareMeetsAngleBound) {
  Triangulation t = refine_pslg(make_unit_square(),
                                RefineOptions{.min_angle_deg = 20.0});
  ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
  EXPECT_TRUE(t.is_delaunay());
  EXPECT_GE(t.min_inside_angle_deg(), 20.0);
}

TEST(Refine, UniformSizingControlsElementCount) {
  const auto coarse = refine_pslg(
      make_unit_square(),
      RefineOptions{.min_angle_deg = 20.0, .size_field = uniform_size(0.2)});
  const auto fine = refine_pslg(
      make_unit_square(),
      RefineOptions{.min_angle_deg = 20.0, .size_field = uniform_size(0.05)});
  EXPECT_GT(fine.inside_triangles(), 8 * coarse.inside_triangles());
  // Area preserved regardless of refinement depth.
  EXPECT_NEAR(inside_area(coarse), 1.0, 1e-9);
  EXPECT_NEAR(inside_area(fine), 1.0, 1e-9);
  // Every inside triangle respects the size field.
  fine.for_each_inside([&](TriId, const TriRec& rec) {
    EXPECT_LE(longest_edge(fine.point(rec.v[0]), fine.point(rec.v[1]),
                           fine.point(rec.v[2])),
              0.05 + 1e-12);
  });
}

TEST(Refine, GradedSizingRefinesNearFocus) {
  const auto size = graded_size({0.0, 0.0}, 0.02, 0.3, 0.1, 1.0);
  Triangulation t = refine_pslg(
      make_rectangle(Rect{-1, -1, 1, 1}),
      RefineOptions{.min_angle_deg = 20.0, .size_field = size});
  ASSERT_TRUE(t.check_invariants().empty());
  // Count triangles near the focus vs far away: near must be much denser.
  std::size_t near = 0, far = 0;
  t.for_each_inside([&](TriId, const TriRec& rec) {
    const Point2 c{(t.point(rec.v[0]).x + t.point(rec.v[1]).x +
                    t.point(rec.v[2]).x) / 3.0,
                   (t.point(rec.v[0]).y + t.point(rec.v[1]).y +
                    t.point(rec.v[2]).y) / 3.0};
    if (dist(c, {0, 0}) < 0.25) ++near;
    if (dist(c, {0, 0}) > 0.75) ++far;
  });
  EXPECT_GT(near, far);
}

TEST(Refine, PipeSectionQuality) {
  Triangulation t = refine_pslg(
      make_pipe_section(1.0, 0.45, 48),
      RefineOptions{.min_angle_deg = 20.0, .size_field = uniform_size(0.08)});
  ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
  EXPECT_GE(t.min_inside_angle_deg(), 20.0);
  const double annulus = 3.14159265 * (1.0 - 0.45 * 0.45);
  EXPECT_NEAR(inside_area(t), annulus, 0.05 * annulus);
}

TEST(Refine, BoundedSliceStopsEarly) {
  Triangulation t = Triangulation::conforming(make_unit_square());
  DelaunayRefiner refiner(
      t, RefineOptions{.min_angle_deg = 20.0, .size_field = uniform_size(0.02)});
  const auto r1 = refiner.refine(RefineLimits{.max_new_vertices = 100});
  EXPECT_FALSE(r1.complete);
  EXPECT_LE(r1.vertices_inserted, 101u);
  // Continue to completion.
  const auto r2 = refiner.refine();
  EXPECT_TRUE(r2.complete);
  EXPECT_GE(t.min_inside_angle_deg(), 20.0);
  ASSERT_TRUE(t.check_invariants().empty());
}

TEST(Refine, SplitLogRecordsBoundarySplits) {
  Triangulation t = Triangulation::conforming(make_unit_square());
  (void)t.drain_split_log();
  DelaunayRefiner refiner(
      t, RefineOptions{.min_angle_deg = 20.0, .size_field = uniform_size(0.1)});
  refiner.refine();
  const auto log = t.drain_split_log();
  EXPECT_FALSE(log.empty());  // boundary must have been subdivided
  for (const auto& ev : log) {
    ASSERT_LT(ev.seg, 4u);  // the square has 4 input segments
    // Every split point lies on the square's boundary.
    const bool on_boundary = ev.point.x == 0.0 || ev.point.x == 1.0 ||
                             ev.point.y == 0.0 || ev.point.y == 1.0;
    EXPECT_TRUE(on_boundary) << ev.point.x << "," << ev.point.y;
  }
}

struct DomainCase {
  const char* name;
  Pslg (*make)();
  double h;
};

// Print the case by name. gtest's default byte dump would embed the two
// pointers, whose values change from run to run under address-space
// randomisation, and with them the CTest names discovered from
// --gtest_list_tests.
void PrintTo(const DomainCase& domain, std::ostream* os) { *os << domain.name; }

Pslg square_pslg() { return make_unit_square(); }
Pslg pipe_pslg() { return make_pipe_section(1.0, 0.45, 32); }
Pslg key_pslg() { return make_key_shape(); }
Pslg plate_pslg() { return make_perforated_plate(Rect{0, 0, 1, 1}, 2, 2); }

class RefineDomains
    : public ::testing::TestWithParam<std::tuple<DomainCase, double>> {};

TEST_P(RefineDomains, QualityAndInvariantsHold) {
  const auto& [domain, angle] = GetParam();
  Triangulation t = refine_pslg(
      domain.make(),
      RefineOptions{.min_angle_deg = angle,
                    .size_field = uniform_size(domain.h)});
  ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
  EXPECT_TRUE(t.is_delaunay());
  EXPECT_GE(t.min_inside_angle_deg(), angle);
  EXPECT_GT(t.inside_triangles(), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RefineDomains,
    ::testing::Combine(
        ::testing::Values(DomainCase{"square", &square_pslg, 0.08},
                          DomainCase{"pipe", &pipe_pslg, 0.1},
                          DomainCase{"key", &key_pslg, 0.05},
                          DomainCase{"plate", &plate_pslg, 0.06}),
        ::testing::Values(15.0, 20.0)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_a" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

TEST(Refine, DeterministicAcrossRuns) {
  const RefineOptions options{.min_angle_deg = 20.0,
                              .size_field = uniform_size(0.07)};
  Triangulation a = refine_pslg(make_pipe_section(1.0, 0.45, 24), options);
  Triangulation b = refine_pslg(make_pipe_section(1.0, 0.45, 24), options);
  EXPECT_EQ(a.vertex_count(), b.vertex_count());
  EXPECT_EQ(a.inside_triangles(), b.inside_triangles());
}

}  // namespace
}  // namespace mrts::mesh

// Pins the Delaunay kernel's output bytes: FNV-1a 64 digests of
// Triangulation::serialize for whole refinements, for refinements done in
// bounded slices, and for both run on several threads at once (insertion
// keeps its scratch buffers per thread, so threads and meshes must not
// leak into each other). Any change to the traversal, the free list or the
// record layout shows up here as a different digest. The quality pass that
// skips provably unneeded trigonometry is checked against the loop that
// measures every triangle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "mesh/refine.hpp"
#include "util/rng.hpp"

namespace mrts::mesh {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t digest(const Triangulation& t) {
  util::ByteWriter w;
  t.serialize(w);
  std::uint64_t h = kFnvBasis;
  for (const std::byte b : w.bytes()) {
    h = (h ^ static_cast<std::uint64_t>(b)) * kFnvPrime;
  }
  return h;
}

struct KernelCase {
  const char* name;
  Pslg (*make)();
  RefineOptions options;
  std::uint64_t digest;
  std::size_t inside = 0;  // 0: not pinned
};

void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

Pslg pipe() { return make_pipe_section(1.0, 0.45, 48); }
Pslg plate() { return make_perforated_plate(Rect{0, 0, 1, 1}, 2, 2); }
Pslg square20() { return make_rectangle(Rect{-1, -1, 1, 1}); }

const KernelCase kUnitSquare{"unit_square", &make_unit_square,
                             {.min_angle_deg = 20.0,
                              .size_field = uniform_size(0.015)},
                             0xeba4560d863b7a84ull, 23110};
const KernelCase kKeyShape{"key_shape", &make_key_shape,
                           {.min_angle_deg = 20.0,
                            .size_field = uniform_size(0.02)},
                           0x40f16b890165958bull};

class KernelDigest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelDigest, RefinePslgMatchesGolden) {
  const KernelCase& c = GetParam();
  const Triangulation t = refine_pslg(c.make(), c.options);
  EXPECT_EQ(digest(t), c.digest) << std::hex << digest(t);
  if (c.inside != 0) {
    EXPECT_EQ(t.inside_triangles(), c.inside);
  }
}

const KernelCase kRefineCases[] = {
    kUnitSquare,
    KernelCase{"pipe_section", &pipe,
               {.min_angle_deg = 20.0, .size_field = uniform_size(0.08)},
               0xc683838e889df045ull},
    kKeyShape,
    KernelCase{"perforated_plate", &plate, {.min_angle_deg = 30.0},
               0x634631c73147b5bdull},
    KernelCase{"graded_rectangle", &square20,
               {.min_angle_deg = 20.0,
                .size_field = graded_size({0, 0}, 0.02, 0.3, 0.1, 1.0)},
               0x521be65948780bdbull},
};

INSTANTIATE_TEST_SUITE_P(
    , KernelDigest, ::testing::ValuesIn(kRefineCases),
    [](const auto& info) { return std::string(info.param.name); });

// inside_quality() skips min_angle_deg() for a triangle the law of cosines
// proves cannot lower the minimum or fall below the goal. The reference is
// the loop it replaced, kept verbatim, which measures every triangle: area
// and smallest angle must match bit for bit, the below-goal count exactly.
InsideQuality measure_every_triangle(const Triangulation& tri,
                                     double goal_deg) {
  InsideQuality q;
  const double below = goal_deg - 1e-9;
  tri.for_each_inside([&](TriId, const TriRec& rec) {
    const Point2& a = tri.point(rec.v[0]);
    const Point2& b = tri.point(rec.v[1]);
    const Point2& c = tri.point(rec.v[2]);
    q.area += 0.5 * orient2d(a, b, c);
    const double m = min_angle_deg(a, b, c);
    q.min_angle_deg = std::min(q.min_angle_deg, m);
    if (m < below) ++q.below_goal;
  });
  return q;
}

void expect_quality_matches(const Triangulation& tri) {
  for (const double goal : {0.0, 20.0, 33.0, 45.0, 60.0}) {
    const InsideQuality want = measure_every_triangle(tri, goal);
    const InsideQuality got = tri.inside_quality(goal);
    EXPECT_EQ(std::memcmp(&got.area, &want.area, sizeof got.area), 0)
        << "goal " << goal << ": area " << got.area << " vs " << want.area;
    EXPECT_EQ(std::memcmp(&got.min_angle_deg, &want.min_angle_deg,
                          sizeof got.min_angle_deg),
              0)
        << "goal " << goal << ": min angle " << got.min_angle_deg << " vs "
        << want.min_angle_deg;
    EXPECT_EQ(got.below_goal, want.below_goal) << "goal " << goal;
  }
}

/// `tri` with every coordinate multiplied by 2^-258. A power of two scales
/// exactly, so min_angle_deg() sees the same angles, but a product of two
/// squared edge lengths falls below the normal range (to about 1e-318 for
/// edges of 0.015), where a double keeps only a few significant digits.
Triangulation scaled_down(const Triangulation& tri) {
  util::ByteWriter w;
  tri.serialize(w);
  std::vector<std::byte> bytes = w.take();
  // serialize() starts with the vertices: a u64 count, then x, y pairs.
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data(), sizeof count);
  for (std::size_t i = 0; i < 2 * count; ++i) {
    std::byte* at = bytes.data() + sizeof count + i * sizeof(double);
    double v = 0.0;
    std::memcpy(&v, at, sizeof v);
    v = std::ldexp(v, -258);
    std::memcpy(at, &v, sizeof v);
  }
  util::ByteReader in(bytes);
  return Triangulation::deserialized(in);
}

class KernelQuality : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelQuality, SkippingMatchesMeasuringEveryTriangle) {
  const Triangulation t = refine_pslg(GetParam().make(), GetParam().options);
  expect_quality_matches(t);
  expect_quality_matches(scaled_down(t));
}

INSTANTIATE_TEST_SUITE_P(
    , KernelQuality, ::testing::ValuesIn(kRefineCases),
    [](const auto& info) { return std::string(info.param.name); });

/// Delaunay triangulation of `points`, which lie strictly inside the unit
/// square, together with the square's corners: every triangle is inside.
Triangulation point_cloud(const std::vector<Point2>& points) {
  Pslg pslg = make_unit_square();
  pslg.points.insert(pslg.points.end(), points.begin(), points.end());
  return Triangulation::conforming(pslg);
}

TEST(KernelQualityClouds, SkippingMatchesMeasuringEveryTriangle) {
  util::Rng rng(0x9e3779b97f4a7c15ull);
  std::vector<Point2> uniform;
  const auto inner = [&rng] { return rng.uniform(0.01, 0.99); };
  for (int i = 0; i < 3000; ++i) uniform.push_back({inner(), inner()});

  // Near-collinear: most points within 1e-9 of the line y = 0.5.
  std::vector<Point2> collinear;
  for (int i = 0; i < 600; ++i) {
    collinear.push_back({inner(), 0.5 + 1e-9 * rng.uniform(-1.0, 1.0)});
  }
  for (int i = 0; i < 200; ++i) collinear.push_back({inner(), inner()});

  // Near-equal edges: an equilateral lattice jittered by 1e-9, so the
  // edges of a triangle differ by about 1e-7 relative and most smallest
  // angles sit within 1e-5 degrees of 60, next to the goal-60 threshold.
  std::vector<Point2> lattice;
  const double h = 0.02;
  for (int j = 0; j < 40; ++j) {
    for (int i = 0; i < 40; ++i) {
      const double x = 0.1 + h * (i + 0.5 * (j % 2));
      const double y = 0.1 + h * std::sqrt(3.0) / 2.0 * j;
      lattice.push_back({x + 1e-9 * rng.uniform(-1.0, 1.0),
                         y + 1e-9 * rng.uniform(-1.0, 1.0)});
    }
  }

  for (const auto* points : {&uniform, &collinear, &lattice}) {
    const Triangulation t = point_cloud(*points);
    ASSERT_GE(t.inside_triangles(), points->size());
    expect_quality_matches(t);
    expect_quality_matches(scaled_down(t));
  }
}

// Refinement in bounded slices of 500 vertices, each slice by a new
// refiner (as NUPDR leaves are refined).
class SlicedRun {
 public:
  explicit SlicedRun(const KernelCase& c)
      : tri_(Triangulation::conforming(c.make())), options_(c.options) {
    (void)tri_.drain_split_log();
  }

  /// Refines one slice; false once the mesh is complete.
  bool step() {
    if (done_) return false;
    DelaunayRefiner refiner(tri_, options_);
    done_ = refiner.refine(RefineLimits{.max_new_vertices = 500}).complete;
    return !done_;
  }

  const Triangulation& tri() const { return tri_; }

 private:
  Triangulation tri_;
  RefineOptions options_;
  bool done_ = false;
};

constexpr std::uint64_t kUnitSquareSliced = 0x0ab4d98bc3ceb7c5ull;
constexpr std::uint64_t kKeyShapeSliced = 0x48537c87269f4ecaull;

TEST(KernelSlices, SlicedRefinementsMatchGolden) {
  SlicedRun square(kUnitSquare);
  while (square.step()) {
  }
  EXPECT_EQ(digest(square.tri()), kUnitSquareSliced)
      << std::hex << digest(square.tri());
  SlicedRun key(kKeyShape);
  while (key.step()) {
  }
  EXPECT_EQ(digest(key.tri()), kKeyShapeSliced) << std::hex
                                                << digest(key.tri());
}

TEST(KernelThreads, ConcurrentRefinementsMatchGolden) {
  const KernelCase* cases[] = {&kUnitSquare, &kKeyShape, &kUnitSquare,
                               &kKeyShape};
  std::uint64_t got[4] = {};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      got[i] = digest(refine_pslg(cases[i]->make(), cases[i]->options));
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i], cases[i]->digest) << "thread " << i << ": " << std::hex
                                        << got[i];
  }
}

// One thread interleaves slices of two meshes of different sizes, so each
// insertion runs on scratch last grown and stamped by the other mesh.
TEST(KernelThreads, InterleavedSlicesMatchGolden) {
  std::uint64_t square_digest = 0, key_digest = 0;
  std::thread th([&] {
    SlicedRun square(kUnitSquare);
    SlicedRun key(kKeyShape);
    bool more = true;
    while (more) {
      more = square.step();
      more = key.step() || more;
    }
    square_digest = digest(square.tri());
    key_digest = digest(key.tri());
  });
  th.join();
  EXPECT_EQ(square_digest, kUnitSquareSliced) << std::hex << square_digest;
  EXPECT_EQ(key_digest, kKeyShapeSliced) << std::hex << key_digest;
}

// Fills and frees heap blocks of many sizes with a nonzero pattern, so a
// later allocation is likely to reuse dirty memory.
void churn_heap() {
  std::vector<std::unique_ptr<std::byte[]>> blocks;
  for (std::size_t size = 64; size <= (std::size_t{1} << 22); size *= 2) {
    for (int k = 0; k < 4; ++k) {
      auto block = std::make_unique<std::byte[]>(size);
      std::memset(block.get(), 0xA5, size);
      blocks.push_back(std::move(block));
    }
  }
}

TEST(KernelBytes, SerializeIsIndependentOfHeapContents) {
  const RefineOptions options{.min_angle_deg = 20.0,
                              .size_field = uniform_size(0.03)};
  util::ByteWriter first;
  refine_pslg(make_key_shape(), options).serialize(first);
  churn_heap();
  util::ByteWriter second;
  refine_pslg(make_key_shape(), options).serialize(second);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(std::memcmp(first.bytes().data(), second.bytes().data(),
                          first.size()) == 0);
}

}  // namespace
}  // namespace mrts::mesh

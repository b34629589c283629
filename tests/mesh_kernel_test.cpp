// Pins the Delaunay kernel's output bytes: FNV-1a 64 digests of
// Triangulation::serialize for whole refinements, for refinements done in
// bounded slices, and for both run on several threads at once (insertion
// keeps its scratch buffers per thread, so threads and meshes must not
// leak into each other). Any change to the traversal, the free list or the
// record layout shows up here as a different digest. The quality pass that
// skips provably unneeded trigonometry is checked against the loop that
// measures every triangle, and the refiner's quality test and the inline
// predicate filters against the code they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
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

/// Uniform, near-collinear and near-equilateral point clouds, strictly
/// inside the unit square.
std::vector<std::vector<Point2>> test_clouds() {
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

  return {uniform, collinear, lattice};
}

TEST(KernelQualityClouds, SkippingMatchesMeasuringEveryTriangle) {
  for (const std::vector<Point2>& points : test_clouds()) {
    const Triangulation t = point_cloud(points);
    ASSERT_GE(t.inside_triangles(), points.size());
    expect_quality_matches(t);
    expect_quality_matches(scaled_down(t));
  }
}

// The quality test, the geometry helpers and the predicate filters were
// rewritten for speed: the size test now runs before the circumcenter, and
// the helpers and filters are inline. The references below are the code
// they replaced, kept verbatim but for qualified calls (argument-dependent
// lookup would also find the mrts::mesh versions), and the answers must not
// change.
namespace reference {

std::optional<Point2> circumcenter(const Point2& a, const Point2& b,
                                   const Point2& c) {
  const double abx = b.x - a.x;
  const double aby = b.y - a.y;
  const double acx = c.x - a.x;
  const double acy = c.y - a.y;
  const double d = 2.0 * (abx * acy - aby * acx);
  if (d == 0.0 || !std::isfinite(d)) return std::nullopt;
  const double ab2 = abx * abx + aby * aby;
  const double ac2 = acx * acx + acy * acy;
  const double ux = (acy * ab2 - aby * ac2) / d;
  const double uy = (abx * ac2 - acx * ab2) / d;
  if (!std::isfinite(ux) || !std::isfinite(uy)) return std::nullopt;
  return Point2{a.x + ux, a.y + uy};
}

double circumradius2(const Point2& a, const Point2& b, const Point2& c) {
  const auto cc = reference::circumcenter(a, b, c);
  if (!cc) return std::numeric_limits<double>::infinity();
  return dist2(*cc, a);
}

double longest_edge(const Point2& a, const Point2& b, const Point2& c) {
  return std::sqrt(std::max({dist2(a, b), dist2(b, c), dist2(c, a)}));
}

/// DelaunayRefiner's quality test, radius-edge ratio first. The refiner's
/// members become arguments; the body is unchanged.
struct Refiner {
  const Triangulation& tri_;
  double ratio_bound2_;
  const RefineOptions& options_;

  bool is_poor(const TriRec& rec) const {
    const Point2& a = tri_.point(rec.v[0]);
    const Point2& b = tri_.point(rec.v[1]);
    const Point2& c = tri_.point(rec.v[2]);
    const double r2 = reference::circumradius2(a, b, c);
    const double lmin2 = std::min({dist2(a, b), dist2(b, c), dist2(c, a)});
    if (lmin2 <= 0.0) return false;  // degenerate; nothing sane to do
    if (r2 > ratio_bound2_ * lmin2) return true;
    if (options_.size_field) {
      const Point2 centroid{(a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0};
      const double h = options_.size_field(centroid);
      if (h > 0.0 && reference::longest_edge(a, b, c) > h) return true;
    }
    return false;
  }
};

constexpr double kPi = 3.14159265358979323846;

double ratio_bound2(double min_angle_deg) {
  const double bound = 1.0 / (2.0 * std::sin(min_angle_deg * kPi / 180.0));
  return bound * bound;
}

// The filtered stages of orient2d and incircle as they were out of line.
// Where a filter cannot decide, it calls the exact stage, which did not
// change and counts one predicate_exact_fallbacks().
constexpr double kEpsilon = 1.1102230246251565e-16;  // 2^-53
constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEpsilon) * kEpsilon;
constexpr double kIccErrBoundA = (10.0 + 96.0 * kEpsilon) * kEpsilon;

double orient2d(const Point2& pa, const Point2& pb, const Point2& pc) {
  const double detleft = (pa.x - pc.x) * (pb.y - pc.y);
  const double detright = (pa.y - pc.y) * (pb.x - pc.x);
  const double det = detleft - detright;

  double detsum;
  if (detleft > 0.0) {
    if (detright <= 0.0) return det;
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return det;
    detsum = -detleft - detright;
  } else {
    return det;
  }
  const double errbound = kCcwErrBoundA * detsum;
  if (det >= errbound || -det >= errbound) return det;
  return detail::orient2d_exact(pa, pb, pc);
}

double incircle(const Point2& pa, const Point2& pb, const Point2& pc,
                const Point2& pd) {
  const double adx = pa.x - pd.x;
  const double bdx = pb.x - pd.x;
  const double cdx = pc.x - pd.x;
  const double ady = pa.y - pd.y;
  const double bdy = pb.y - pd.y;
  const double cdy = pc.y - pd.y;

  const double bdxcdy = bdx * cdy;
  const double cdxbdy = cdx * bdy;
  const double alift = adx * adx + ady * ady;

  const double cdxady = cdx * ady;
  const double adxcdy = adx * cdy;
  const double blift = bdx * bdx + bdy * bdy;

  const double adxbdy = adx * bdy;
  const double bdxady = bdx * ady;
  const double clift = cdx * cdx + cdy * cdy;

  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);

  const double permanent =
      (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * alift +
      (std::fabs(cdxady) + std::fabs(adxcdy)) * blift +
      (std::fabs(adxbdy) + std::fabs(bdxady)) * clift;
  const double errbound = kIccErrBoundA * permanent;
  if (det > errbound || -det > errbound) return det;
  return detail::incircle_exact(pa, pb, pc, pd);
}

}  // namespace reference

/// Vertex id of the point equal to `p`.
VertexId vertex_at(const Triangulation& t, const Point2& p) {
  for (VertexId v = 0; v < t.vertex_count(); ++v) {
    if (t.point(v) == p) return v;
  }
  ADD_FAILURE() << "no vertex at (" << p.x << ", " << p.y << ")";
  return 0;
}

TEST(KernelReference, IsPoorMatchesRatioTestFirst) {
  // Exactly collinear triples (no circumcenter) and near-collinear ones
  // (a huge circumradius), on two lines clear of the clouds' lattice.
  const std::vector<Point2> crafted = {
      {0.125, 0.375}, {0.25, 0.375}, {0.625, 0.375},
      {0.0625, 0.0625}, {0.1875, 0.1875}, {0.4375, 0.4375},
      {0.3125, 0.375 + 0x1.0p-40}, {0.5, 0.5 + 0x1.0p-50}};
  const SizeField fields[] = {
      SizeField{},
      uniform_size(0.05),
      graded_size({0.5, 0.5}, 0.01, 0.2, 0.1, 0.6),
      [](const Point2&) { return 0.0; },
      [](const Point2&) { return -1.0; },
  };
  for (std::vector<Point2> points : test_clouds()) {
    points.insert(points.end(), crafted.begin(), crafted.end());
    Triangulation t = point_cloud(points);
    std::vector<TriRec> recs;
    for (TriId id = 0; id < t.tri_slots(); ++id) {
      if (t.tri(id).alive) recs.push_back(t.tri(id));
    }
    std::vector<VertexId> at;
    for (const Point2& p : crafted) at.push_back(vertex_at(t, p));
    const auto rec_of = [](VertexId a, VertexId b, VertexId c) {
      TriRec rec;
      rec.v = {a, b, c};
      return rec;
    };
    for (const VertexId v : {at[0], at[3]}) {  // lmin2 == 0
      recs.push_back(rec_of(v, v, at[7]));
      recs.push_back(rec_of(at[7], v, v));
      recs.push_back(rec_of(v, at[7], v));
    }
    for (int k = 0; k < 3; ++k) {  // exactly and near-collinear
      recs.push_back(rec_of(at[k % 3], at[(k + 1) % 3], at[(k + 2) % 3]));
      recs.push_back(rec_of(at[3 + k % 3], at[3 + (k + 1) % 3],
                            at[3 + (k + 2) % 3]));
      recs.push_back(rec_of(at[k % 3], at[6], at[(k + 1) % 3]));
      recs.push_back(rec_of(at[3 + k % 3], at[7], at[3 + (k + 1) % 3]));
    }
    for (const SizeField& field : fields) {
      for (const double angle : {20.0, 33.0}) {
        const RefineOptions options{.min_angle_deg = angle,
                                    .size_field = field};
        const DelaunayRefiner refiner(t, options);
        const reference::Refiner want{t, reference::ratio_bound2(angle),
                                      options};
        std::size_t poor = 0;
        for (const TriRec& rec : recs) {
          const bool expected = want.is_poor(rec);
          ASSERT_EQ(refiner.is_poor(rec), expected)
              << "triangle (" << rec.v[0] << ", " << rec.v[1] << ", "
              << rec.v[2] << "), angle " << angle;
          poor += expected ? 1 : 0;
        }
        EXPECT_GT(poor, 0u);
        EXPECT_LT(poor, recs.size());
      }
    }
  }
}

int sign_of(double x) { return (x > 0.0) - (x < 0.0); }

/// Runs the reference and the inline predicate on one input. Where the
/// reference filter decides, the doubles must be equal bit for bit;
/// elsewhere their signs must be equal. Both must take the exact stage
/// equally often. Returns whether the reference fell back.
template <typename Ref, typename Got>
bool expect_same_answer(Ref&& reference, Got&& inline_predicate) {
  const unsigned long long before = predicate_exact_fallbacks();
  const double want = reference();
  const unsigned long long mid = predicate_exact_fallbacks();
  const double got = inline_predicate();
  const unsigned long long after = predicate_exact_fallbacks();
  EXPECT_EQ(after - mid, mid - before);
  if (mid == before) {
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << got << " vs " << want;
  } else {
    EXPECT_EQ(sign_of(got), sign_of(want)) << got << " vs " << want;
  }
  return mid != before;
}

TEST(KernelReference, InlineFiltersMatchOutOfLine) {
  util::Rng rng(0x5bd1e995u);
  std::size_t orient_exact = 0, incircle_exact = 0;
  const auto orient = [&](const Point2& a, const Point2& b, const Point2& c) {
    orient_exact += expect_same_answer(
        [&] { return reference::orient2d(a, b, c); },
        [&] { return orient2d(a, b, c); });
  };
  const auto in_circle = [&](const Point2& a, const Point2& b,
                             const Point2& c, const Point2& d) {
    incircle_exact += expect_same_answer(
        [&] { return reference::incircle(a, b, c, d); },
        [&] { return incircle(a, b, c, d); });
  };
  const auto random_point = [&rng] {
    return Point2{rng.uniform(), rng.uniform()};
  };

  // Random: the filters decide nearly everything.
  for (int i = 0; i < 20000; ++i) {
    const Point2 a = random_point(), b = random_point(), c = random_point();
    orient(a, b, c);
    in_circle(a, b, c, random_point());
  }
  EXPECT_LT(orient_exact + incircle_exact, 10u);

  // Near-collinear: Shewchuk's grid of points a few ulps from the line
  // through (12, 12) and (24, 24); many are exactly on it.
  orient_exact = 0;
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      const Point2 a{0.5 + i * 0x1.0p-53, 0.5 + j * 0x1.0p-53};
      orient(a, {12.0, 12.0}, {24.0, 24.0});
    }
  }
  // ... and points rounded onto random lines.
  for (int i = 0; i < 4000; ++i) {
    const Point2 a = random_point(), b = random_point();
    const double t = rng.uniform(-2.0, 2.0);
    orient(a, b, {a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)});
  }
  EXPECT_GT(orient_exact, 100u);

  // Near-cocircular: four points rounded onto one circle, and the corners
  // of a square with the fourth moved by a few ulps.
  incircle_exact = 0;
  for (int i = 0; i < 4000; ++i) {
    const Point2 o = random_point();
    const double r = rng.uniform(0.01, 1.0);
    Point2 p[4];
    for (Point2& q : p) {
      const double theta = rng.uniform(0.0, 2.0 * reference::kPi);
      q = {o.x + r * std::cos(theta), o.y + r * std::sin(theta)};
    }
    in_circle(p[0], p[1], p[2], p[3]);
  }
  for (int i = -8; i <= 8; ++i) {
    for (int j = -8; j <= 8; ++j) {
      in_circle({1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0},
                {i * 0x1.0p-52, -1.0 + j * 0x1.0p-52});
    }
  }
  EXPECT_GT(incircle_exact, 100u);
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

// Pins the Delaunay kernel's output bytes: FNV-1a 64 digests of
// Triangulation::serialize for whole refinements, for refinements done in
// bounded slices, and for both run on several threads at once (insertion
// keeps its scratch buffers per thread, so threads and meshes must not
// leak into each other). Any change to the traversal, the free list or the
// record layout shows up here as a different digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "mesh/refine.hpp"

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

INSTANTIATE_TEST_SUITE_P(
    , KernelDigest,
    ::testing::Values(
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
                   0x521be65948780bdbull}),
    [](const auto& info) { return std::string(info.param.name); });

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

// Integration tests of the out-of-core PUMG methods on the MRTS runtime:
// each method must produce a conforming quality mesh that matches its
// in-core counterpart, both with ample memory (no swapping) and under a
// tiny memory budget that forces heavy spilling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <ostream>

#include "pumg/nupdr.hpp"
#include "pumg/ooc.hpp"
#include "pumg/pcdm.hpp"
#include "pumg/updr.hpp"

namespace mrts::pumg {
namespace {

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

core::ClusterOptions cluster_options(std::size_t nodes, std::size_t budget_kb) {
  core::ClusterOptions options;
  options.nodes = nodes;
  options.runtime.ooc.memory_budget_bytes = budget_kb << 10;
  options.spill = core::SpillMedium::kMemory;
  options.max_run_time = std::chrono::seconds(180);
  return options;
}

TEST(OocPcdm, MatchesInCoreResultInCore) {
  const auto problem = pipe_problem(0.08);
  OpcdmOocConfig config{.cluster = cluster_options(2, 1 << 20), .strips = 5};
  const auto ooc = run_opcdm_ooc(problem, config);
  EXPECT_FALSE(ooc.report.timed_out);
  EXPECT_EQ(ooc.objects_spilled, 0u);  // memory was ample

  auto pool = tasking::make_pool(tasking::PoolBackend::kWorkStealing, 2);
  const auto incore = run_pcdm(problem, PcdmConfig{.strips = 5}, *pool);
  // Asynchronous message interleaving shifts individual Steiner points, so
  // sizes agree only approximately; area must match exactly.
  EXPECT_NEAR(static_cast<double>(ooc.mesh.elements),
              static_cast<double>(incore.elements), 0.05 * incore.elements);
  EXPECT_NEAR(ooc.mesh.total_area, incore.total_area, 1e-9);
  EXPECT_GE(ooc.mesh.min_angle_deg, 15.0);
  EXPECT_LE(ooc.mesh.below_goal, ooc.mesh.elements / 200);
}

TEST(OocPcdm, HeavySwappingPreservesTheMesh) {
  const auto problem = pipe_problem(0.05);
  // ~300 KB budget on each of 2 nodes forces cells in and out of core.
  OpcdmOocConfig config{.cluster = cluster_options(2, 300), .strips = 8};
  std::vector<Subdomain> subs;
  Decomposition decomp;
  const auto ooc = run_opcdm_ooc(problem, config, &subs, &decomp);
  EXPECT_FALSE(ooc.report.timed_out);
  EXPECT_GT(ooc.objects_spilled, 0u);
  EXPECT_GT(ooc.objects_loaded, 0u);
  // Cross-cell conformity and structural invariants survive the swapping.
  EXPECT_TRUE(check_conformity(decomp, subs).empty())
      << check_conformity(decomp, subs);
  for (const auto& sub : subs) {
    EXPECT_TRUE(sub.tri().check_invariants().empty());
  }

  auto pool = tasking::make_pool(tasking::PoolBackend::kWorkStealing, 2);
  const auto incore = run_pcdm(problem, PcdmConfig{.strips = 8}, *pool);
  EXPECT_NEAR(static_cast<double>(ooc.mesh.elements),
              static_cast<double>(incore.elements), 0.05 * incore.elements);
  EXPECT_NEAR(ooc.mesh.total_area, incore.total_area, 1e-9);
  // Sharp strip-border/domain-boundary crossings admit a handful of
  // below-goal triangles (Ruppert small-angle limitation).
  EXPECT_GE(ooc.mesh.min_angle_deg, 15.0);
  EXPECT_LE(ooc.mesh.below_goal, ooc.mesh.elements / 200);
}

TEST(OocUpdr, PhasesConvergeAndConform) {
  const auto problem = square_problem(0.04);
  OupdrOocConfig config{.cluster = cluster_options(3, 1 << 20), .nx = 3,
                        .ny = 3};
  const auto ooc = run_oupdr_ooc(problem, config);
  EXPECT_FALSE(ooc.report.timed_out);
  EXPECT_NEAR(ooc.mesh.total_area, 1.0, 1e-9);
  EXPECT_GE(ooc.mesh.min_angle_deg, 20.0);
  EXPECT_GE(ooc.mesh.rounds, 1u);

  auto pool = tasking::make_pool(tasking::PoolBackend::kWorkStealing, 2);
  const auto incore = run_updr(problem, UpdrConfig{.nx = 3, .ny = 3}, *pool);
  EXPECT_EQ(ooc.mesh.elements, incore.elements);
}

TEST(OocUpdr, SwappingRun) {
  const auto problem = square_problem(0.03);
  OupdrOocConfig config{.cluster = cluster_options(2, 400), .nx = 4, .ny = 4};
  std::vector<Subdomain> subs;
  Decomposition decomp;
  const auto ooc = run_oupdr_ooc(problem, config, &subs, &decomp);
  EXPECT_FALSE(ooc.report.timed_out);
  EXPECT_GT(ooc.objects_spilled, 0u);
  EXPECT_NEAR(ooc.mesh.total_area, 1.0, 1e-9);
  EXPECT_GE(ooc.mesh.min_angle_deg, 20.0);
  EXPECT_TRUE(check_conformity(decomp, subs).empty())
      << check_conformity(decomp, subs);
}

TEST(OocNupdr, QueueDrivenRefinementMatchesInCore) {
  const auto problem = graded_pipe_problem();
  OnupdrOocConfig config{.cluster = cluster_options(2, 1 << 20),
                         .leaf_element_budget = 300};
  const auto ooc = run_onupdr_ooc(problem, config);
  EXPECT_FALSE(ooc.report.timed_out);
  EXPECT_GE(ooc.mesh.min_angle_deg, 20.0);
  EXPECT_GT(ooc.mesh.rounds, ooc.mesh.cells);  // re-dispatches happened

  auto pool = tasking::make_pool(tasking::PoolBackend::kWorkStealing, 2);
  const auto incore =
      run_nupdr(problem, NupdrConfig{.leaf_element_budget = 300}, *pool);
  EXPECT_NEAR(static_cast<double>(ooc.mesh.elements),
              static_cast<double>(incore.elements), 0.05 * incore.elements);
  EXPECT_NEAR(ooc.mesh.total_area, incore.total_area, 1e-6);
  EXPECT_EQ(ooc.mesh.cells, incore.cells);  // same quadtree either way
}

TEST(OocNupdr, MulticastCollectionVariant) {
  const auto problem = graded_pipe_problem();
  OnupdrOocConfig base{.cluster = cluster_options(3, 1 << 20),
                       .leaf_element_budget = 300,
                       .use_multicast = false};
  OnupdrOocConfig multi{.cluster = cluster_options(3, 1 << 20),
                        .leaf_element_budget = 300,
                        .use_multicast = true};
  const auto r_base = run_onupdr_ooc(problem, base);
  const auto r_multi = run_onupdr_ooc(problem, multi);
  EXPECT_FALSE(r_multi.report.timed_out);
  // Equivalent meshes either way (schedules differ slightly).
  EXPECT_NEAR(static_cast<double>(r_base.mesh.elements),
              static_cast<double>(r_multi.mesh.elements),
              0.05 * r_base.mesh.elements);
  EXPECT_NEAR(r_base.mesh.total_area, r_multi.mesh.total_area, 1e-9);
  EXPECT_GE(r_multi.mesh.min_angle_deg, 20.0);
  // The multicast variant collects neighbourhoods (migrations) and applies
  // splits through direct handler calls (inline deliveries).
  EXPECT_GT(r_multi.migrations, 0u);
  EXPECT_GT(r_multi.inline_deliveries, 0u);
}

TEST(OocNupdr, SwappingRunWithSmallLeaves) {
  const auto problem = graded_pipe_problem();
  OnupdrOocConfig config{.cluster = cluster_options(2, 256),
                         .leaf_element_budget = 250,
                         .max_concurrent_leaves = 4};
  std::vector<Subdomain> subs;
  Decomposition decomp;
  const auto ooc = run_onupdr_ooc(problem, config, &subs, &decomp);
  EXPECT_FALSE(ooc.report.timed_out);
  EXPECT_GT(ooc.objects_spilled, 0u);
  EXPECT_GE(ooc.mesh.min_angle_deg, 20.0);
  EXPECT_EQ(ooc.dirty_left, 0u);
  EXPECT_EQ(ooc.pending_left, 0u);
  EXPECT_TRUE(check_conformity(decomp, subs).empty())
      << check_conformity(decomp, subs);
}

// Statistics collection: the per-cell collect handlers on the owners must
// produce exactly what the one-pass kernel gives over the returned
// subdomains, whichever driver ran them and whether cells had to reload.
enum class OocMethod { kOpcdm, kOupdr, kOnupdr };

/// Spills, loads and messages of one deterministic run.
struct Traffic {
  std::uint64_t spilled = 0;
  std::uint64_t loaded = 0;
  std::uint64_t messages = 0;
};

struct CollectCase {
  const char* name;
  OocMethod method;
  std::size_t budget_kb;
  bool deterministic;
  /// Deterministic runs only: the counts collection produced when it locked
  /// every cell in core at once and measured it read-only.
  std::optional<Traffic> traffic = std::nullopt;
  int oupdr_side = 3;  // OUPDR grid cells per side
  /// Every node owns at least 8 cells and no 4 of them fit the budget.
  bool tight = false;
  /// kFile keeps the I/O thread (a bare kMemory stack runs storage inline),
  /// so reloads complete on another thread while collection runs.
  core::SpillMedium spill = core::SpillMedium::kMemory;
};

void PrintTo(const CollectCase& c, std::ostream* os) { *os << c.name; }

OocRunResult run_case(const CollectCase& c, core::ClusterOptions cluster,
                      std::vector<Subdomain>* subs, Decomposition* decomp) {
  cluster.spill = c.spill;
  if (c.method == OocMethod::kOpcdm) {
    return run_opcdm_ooc(pipe_problem(0.05), {.cluster = cluster, .strips = 6},
                         subs, decomp);
  }
  if (c.method == OocMethod::kOupdr) {
    return run_oupdr_ooc(pipe_problem(0.05),
                         {.cluster = cluster,
                          .nx = c.oupdr_side,
                          .ny = c.oupdr_side},
                         subs, decomp);
  }
  return run_onupdr_ooc(graded_pipe_problem(),
                        {.cluster = cluster, .leaf_element_budget = 300},
                        subs, decomp);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

class OocCollect : public ::testing::TestWithParam<CollectCase> {};

TEST_P(OocCollect, ResultMatchesReturnedSubdomains) {
  const CollectCase& c = GetParam();
  core::ClusterOptions cluster = cluster_options(2, c.budget_kb);
  cluster.deterministic = c.deterministic;
  std::vector<Subdomain> subs;
  Decomposition decomp;
  const OocRunResult r = run_case(c, cluster, &subs, &decomp);
  ASSERT_FALSE(r.report.timed_out);
  if (c.budget_kb < (1 << 20)) {
    EXPECT_GT(r.objects_spilled, 0u);  // collection reloaded spilled cells
  }

  ASSERT_EQ(subs.size(), decomp.size());
  MeshRunStats kernel;
  kernel.quality_goal_deg = 20.0;
  for (const Subdomain& sub : subs) accumulate_stats(kernel, sub);
  EXPECT_EQ(r.mesh.quality_goal_deg, 20.0);
  EXPECT_EQ(r.mesh.cells, decomp.size());
  EXPECT_EQ(r.mesh.cells, kernel.cells);
  EXPECT_EQ(r.mesh.elements, kernel.elements);
  EXPECT_EQ(r.mesh.vertices, kernel.vertices);
  EXPECT_EQ(r.mesh.below_goal, kernel.below_goal);
  EXPECT_TRUE(same_bits(r.mesh.total_area, kernel.total_area))
      << r.mesh.total_area << " vs " << kernel.total_area;
  EXPECT_TRUE(same_bits(r.mesh.min_angle_deg, kernel.min_angle_deg))
      << r.mesh.min_angle_deg << " vs " << kernel.min_angle_deg;
}

// Collection reloads spilled cells a few at a time and empties each one as
// it is measured, so it stays inside the rules the main phase runs under:
// over its budget a node holds at most the reloads in flight, which land
// before the cells they displace are evicted, plus the cell a running
// handler grows. Locking every cell at once would hold a node's whole share.
TEST_P(OocCollect, PeakStaysWithinBudgetPlusReloadsInFlight) {
  const CollectCase& c = GetParam();
  core::ClusterOptions cluster = cluster_options(2, c.budget_kb);
  cluster.deterministic = c.deterministic;
  std::vector<Subdomain> subs;
  Decomposition decomp;
  const OocRunResult r = run_case(c, cluster, &subs, &decomp);
  ASSERT_FALSE(r.report.timed_out);
  ASSERT_EQ(subs.size(), decomp.size());

  std::vector<std::size_t> footprints;
  for (const Subdomain& sub : subs) footprints.push_back(sub.footprint_bytes());
  std::sort(footprints.begin(), footprints.end());
  const std::size_t budget = c.budget_kb << 10;
  const auto in_flight =
      static_cast<std::size_t>(cluster.runtime.ooc.max_concurrent_loads);
  const std::size_t bound = budget + (in_flight + 1) * footprints.back();
  EXPECT_LE(r.peak_in_core_bytes, bound)
      << "budget " << budget << ", largest cell " << footprints.back();
  if (c.tight) {
    EXPECT_GE(decomp.size(), 8 * cluster.nodes);
    EXPECT_GT(footprints[0] + footprints[1] + footprints[2] + footprints[3],
              budget);
  }
  if (c.traffic) {
    EXPECT_EQ(r.objects_spilled, c.traffic->spilled);
    EXPECT_EQ(r.objects_loaded, c.traffic->loaded);
    EXPECT_EQ(r.messages_executed, c.traffic->messages);
  }
}

INSTANTIATE_TEST_SUITE_P(
    , OocCollect,
    ::testing::Values(
        CollectCase{"opcdm_incore_threaded", OocMethod::kOpcdm, 1 << 20, false},
        CollectCase{"opcdm_incore_det", OocMethod::kOpcdm, 1 << 20, true,
                    Traffic{0, 0, 24}},
        CollectCase{"opcdm_spill_threaded", OocMethod::kOpcdm, 256, false},
        CollectCase{"opcdm_spill_det", OocMethod::kOpcdm, 256, true,
                    Traffic{6, 6, 24}},
        CollectCase{"oupdr_incore_threaded", OocMethod::kOupdr, 1 << 20, false},
        CollectCase{"oupdr_incore_det", OocMethod::kOupdr, 1 << 20, true,
                    Traffic{0, 0, 45}},
        CollectCase{"oupdr_spill_threaded", OocMethod::kOupdr, 256, false},
        CollectCase{"oupdr_spill_det", OocMethod::kOupdr, 256, true,
                    Traffic{10, 10, 45}},
        CollectCase{"onupdr_incore_threaded", OocMethod::kOnupdr, 1 << 20,
                    false},
        CollectCase{"onupdr_incore_det", OocMethod::kOnupdr, 1 << 20, true,
                    Traffic{0, 0, 103}},
        CollectCase{"onupdr_spill_threaded", OocMethod::kOnupdr, 256, false},
        CollectCase{"onupdr_spill_det", OocMethod::kOnupdr, 256, true,
                    Traffic{17, 17, 105}},
        CollectCase{"oupdr_4x4_tight_threaded", OocMethod::kOupdr, 40, false,
                    std::nullopt, 4, true},
        CollectCase{"oupdr_4x4_tight_det", OocMethod::kOupdr, 40, true,
                    Traffic{31, 61, 80}, 4, true},
        CollectCase{"oupdr_4x4_tight_file_threaded", OocMethod::kOupdr, 40,
                    false, std::nullopt, 4, true, core::SpillMedium::kFile},
        // 18 cells per node: the bound does not depend on the cell count.
        CollectCase{"oupdr_6x6_det", OocMethod::kOupdr, 16, true,
                    Traffic{102, 245, 180}, 6}),
    [](const auto& info) { return std::string(info.param.name); });

// Kernel goldens through the runtime: the deterministic driver on 4 nodes
// with a budget small enough to spill, so cells are serialized, reloaded
// and refined further. One FNV-1a 64 hash runs over every cell's
// Triangulation::serialize bytes, in cell order. Each returned subdomain
// must also re-serialize to the same bytes after a round trip.
struct KernelGoldenCase {
  const char* name;
  OocMethod method;
  std::uint64_t digest;
};

void PrintTo(const KernelGoldenCase& c, std::ostream* os) { *os << c.name; }

class OocKernelGolden : public ::testing::TestWithParam<KernelGoldenCase> {};

std::vector<std::byte> bytes_of(const Subdomain& sub) {
  util::ByteWriter w;
  sub.serialize(w);
  return w.take();
}

TEST_P(OocKernelGolden, MeshBytesMatchAndSurviveRoundTrip) {
  const KernelGoldenCase& c = GetParam();
  core::ClusterOptions cluster = cluster_options(4, 128);
  cluster.deterministic = true;
  const MeshProblem problem = square_problem(0.012);
  std::vector<Subdomain> subs;
  Decomposition decomp;
  OocRunResult r;
  if (c.method == OocMethod::kOpcdm) {
    r = run_opcdm_ooc(problem, {.cluster = cluster, .strips = 8}, &subs,
                      &decomp);
  } else if (c.method == OocMethod::kOupdr) {
    r = run_oupdr_ooc(problem, {.cluster = cluster, .nx = 4, .ny = 4}, &subs,
                      &decomp);
  } else {
    r = run_onupdr_ooc(problem, {.cluster = cluster}, &subs, &decomp);
  }
  ASSERT_FALSE(r.report.timed_out);
  EXPECT_GT(r.objects_spilled, 0u);

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Subdomain& sub : subs) {
    util::ByteWriter w;
    sub.tri().serialize(w);
    for (const std::byte b : w.bytes()) {
      h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ull;
    }
  }
  EXPECT_EQ(h, c.digest) << std::hex << h;

  std::size_t changed = 0;
  for (const Subdomain& sub : subs) {
    const std::vector<std::byte> once = bytes_of(sub);
    util::ByteReader in(once);
    Subdomain reloaded;
    reloaded.deserialize(in);
    if (bytes_of(reloaded) != once) ++changed;
  }
  EXPECT_EQ(changed, 0u) << "of " << subs.size() << " subdomains";
}

INSTANTIATE_TEST_SUITE_P(
    , OocKernelGolden,
    ::testing::Values(
        KernelGoldenCase{"opcdm_8_strips", OocMethod::kOpcdm,
                         0xd90f384841cbc67cull},
        KernelGoldenCase{"oupdr_4x4", OocMethod::kOupdr, 0x934e450b6b57645cull},
        KernelGoldenCase{"onupdr_default", OocMethod::kOnupdr,
                         0x40385da84bfc406bull}),
    [](const auto& info) { return std::string(info.param.name); });

// A run that times out leaves its work queued. Collection would resume it,
// so the runner returns without statistics and leaves out_subs unwritten.
TEST(OocTimedOut, CollectionIsSkipped) {
  core::ClusterOptions cluster = cluster_options(2, 1 << 20);
  cluster.deterministic = true;
  cluster.max_run_time = std::chrono::seconds(0);  // times out at once
  std::vector<Subdomain> subs;
  const OocRunResult r = run_opcdm_ooc(
      pipe_problem(0.08), {.cluster = cluster, .strips = 6}, &subs);
  ASSERT_TRUE(r.report.timed_out);
  EXPECT_EQ(r.mesh.cells, 0u);
  EXPECT_EQ(r.mesh.elements, 0u);
  EXPECT_EQ(r.mesh.total_area, 0.0);
  EXPECT_TRUE(subs.empty());
}

}  // namespace
}  // namespace mrts::pumg

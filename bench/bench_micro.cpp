// Microbenchmarks (google-benchmark) of the runtime primitives underneath
// the experiment harnesses: geometric predicates, serialization, storage
// round trips, active-message delivery, task pools, and point insertion.

#include <benchmark/benchmark.h>

#include "core/runtime.hpp"
#include "mesh/refine.hpp"
#include "simnet/fabric.hpp"
#include "storage/file_store.hpp"
#include "storage/mem_store.hpp"
#include "tasking/task_pool.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrts;

void BM_Orient2dFiltered(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<mesh::Point2> pts(3000);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform()};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mesh::orient2d(pts[i % 3000], pts[(i + 1) % 3000], pts[(i + 2) % 3000]));
    ++i;
  }
}
BENCHMARK(BM_Orient2dFiltered);

void BM_Orient2dExactFallback(benchmark::State& state) {
  // Exactly collinear points with long mantissas force the exact path.
  const mesh::Point2 a{0.1, 0.1}, b{0.2, 0.2};
  const mesh::Point2 c{0.30000000000000004, 0.30000000000000004};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::orient2d(a, b, c));
  }
}
BENCHMARK(BM_Orient2dExactFallback);

void BM_Incircle(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<mesh::Point2> pts(4000);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform()};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::incircle(pts[i % 4000], pts[(i + 1) % 4000],
                                            pts[(i + 2) % 4000],
                                            pts[(i + 3) % 4000]));
    ++i;
  }
}
BENCHMARK(BM_Incircle);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_ArchiveRoundTrip(benchmark::State& state) {
  std::vector<std::uint64_t> payload(
      static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    util::ByteWriter w;
    w.write_vector(payload);
    auto bytes = w.take();
    util::ByteReader r(bytes);
    benchmark::DoNotOptimize(r.read_vector<std::uint64_t>());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_ArchiveRoundTrip)->Arg(1 << 8)->Arg(1 << 14);

void BM_MemStoreRoundTrip(benchmark::State& state) {
  storage::MemStore store;
  std::vector<std::byte> blob(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    (void)store.store(1, blob);
    benchmark::DoNotOptimize(store.load(1));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 2);
}
BENCHMARK(BM_MemStoreRoundTrip)->Arg(1 << 12)->Arg(1 << 18);

void BM_FileStoreRoundTrip(benchmark::State& state) {
  storage::FileStore store(storage::make_temp_spill_dir("bench"));
  std::vector<std::byte> blob(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    (void)store.store(1, blob);
    benchmark::DoNotOptimize(store.load(1));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 2);
}
BENCHMARK(BM_FileStoreRoundTrip)->Arg(1 << 12)->Arg(1 << 18);

void BM_ActiveMessageDelivery(benchmark::State& state) {
  net::Fabric fabric(2);
  std::uint64_t sink = 0;
  const auto h = fabric.endpoint(1).register_handler(
      [&](net::NodeId, util::ByteReader& in) { sink += in.read<std::uint64_t>(); });
  util::ByteWriter w;
  w.write<std::uint64_t>(1);
  const auto payload = w.take();
  for (auto _ : state) {
    fabric.endpoint(0).send(1, h, payload);
    fabric.endpoint(1).poll();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ActiveMessageDelivery);

void BM_PoolSubmit(benchmark::State& state) {
  auto pool = tasking::make_pool(
      state.range(0) == 0 ? tasking::PoolBackend::kWorkStealing
                          : tasking::PoolBackend::kCentralQueue,
      2);
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    tasking::TaskGroup group(*pool);
    for (int i = 0; i < 64; ++i) {
      group.run([&] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_PoolSubmit)->Arg(0)->Arg(1);

void BM_DelaunayInsertion(benchmark::State& state) {
  util::Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    mesh::Triangulation tri(mesh::Rect{0, 0, 1, 1});
    std::vector<mesh::Point2> pts(1000);
    for (auto& p : pts) p = {rng.uniform(), rng.uniform()};
    state.ResumeTiming();
    for (const auto& p : pts) tri.insert_point(p);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DelaunayInsertion);

void BM_RuppertRefine10k(benchmark::State& state) {
  for (auto _ : state) {
    auto tri = mesh::refine_pslg(
        mesh::make_unit_square(),
        {.min_angle_deg = 20.0, .size_field = mesh::uniform_size(0.015)});
    benchmark::DoNotOptimize(tri.inside_triangles());
  }
}
BENCHMARK(BM_RuppertRefine10k);

void BM_MobileObjectSpillLoad(benchmark::State& state) {
  // One full spill + reload of a ~1.6 MB mesh-like mobile object.
  using namespace mrts::core;
  class Blob : public MobileObject {
   public:
    std::vector<std::uint64_t> data = std::vector<std::uint64_t>(200000, 7);
    void serialize(util::ByteWriter& out) const override {
      out.write_vector(data);
    }
    void deserialize(util::ByteReader& in) override {
      data = in.read_vector<std::uint64_t>();
    }
    std::size_t footprint_bytes() const override { return data.size() * 8; }
  };
  net::Fabric fabric(1);
  ObjectTypeRegistry registry;
  const TypeId type = registry.register_type<Blob>("blob");
  const HandlerId touch = registry.register_handler(
      type, [](Runtime&, MobileObject&, MobilePtr, NodeId, util::ByteReader&) {});
  RuntimeOptions options;
  options.ooc.memory_budget_bytes = 4 << 20;
  Runtime rt(0, fabric.endpoint(0), registry,
             std::make_unique<storage::MemStore>(), options);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 4; ++i) {
    ptrs.push_back(rt.create<Blob>(type).first);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    rt.send(ptrs[i % 4], touch, std::vector<std::byte>{});
    // progress_once() reports no work while the reload is still on the I/O
    // thread; the spill+reload is done only when the node is idle.
    while (!rt.is_idle()) {
      rt.progress_once();
    }
    ++i;
  }
  (void)touch;
}
BENCHMARK(BM_MobileObjectSpillLoad);

}  // namespace

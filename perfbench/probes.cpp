// Layer probes: each times public calls of one layer at a size taken from
// the workload, outside any job, and reports the median of several
// repetitions. Nothing here goes through core::Runtime directly, so no
// probe can stop early on a progress_once() that returns false while an
// asynchronous load is still in flight.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "core/cluster.hpp"
#include "simnet/fabric.hpp"
#include "storage/file_store.hpp"
#include "tasking/task_pool.hpp"
#include "util/archive.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mrts;

constexpr int kReps = 7;

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, n - i));
  }
  return out;
}

/// Median over kReps of the seconds per call of `fn`, each repetition
/// calling it until at least `min_s` has passed.
template <typename Fn>
double seconds_per_call(Fn&& fn, double min_s) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kReps; ++rep) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = seconds_between(t0, Clock::now());
    } while (elapsed < min_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return median(per_call);
}

}  // namespace

void probe_util(LayerSamples& out, std::size_t blob_bytes,
                std::uint64_t seed) {
  const std::vector<std::byte> blob = random_bytes(blob_bytes, seed);
  const double bytes = static_cast<double>(blob.size());
  {
    SpanLog::Scope span(spans(), "util.crc32");
    std::uint32_t sink = 0;
    const double s = seconds_per_call([&] { sink ^= util::crc32(blob); }, 0.005);
    out.fixed["util.crc32_gbps"] = bytes / s / 1e9;
    if (sink == 0x5a5a5a5a) std::fputc(' ', stderr);  // keep the calls live
  }
  {
    // Serialize-plus-deserialize round trip of one blob-sized record.
    SpanLog::Scope span(spans(), "util.archive");
    std::vector<double> values(blob.size() / sizeof(double));
    std::memcpy(values.data(), blob.data(), values.size() * sizeof(double));
    const double s = seconds_per_call(
        [&] {
          util::ByteWriter w(values.size() * sizeof(double) + 16);
          w.write_vector(values);
          const std::vector<std::byte> buf = w.take();
          util::ByteReader r(buf);
          if (r.read_vector<double>().size() != values.size()) {
            throw std::runtime_error("archive probe: short read");
          }
        },
        0.005);
    out.fixed["util.archive_gbps"] = bytes / s / 1e9;
  }
}

void probe_storage(LayerSamples& out, std::size_t blob_bytes,
                   std::uint64_t seed) {
  SpanLog::Scope span(spans(), "storage.file_store_roundtrip");
  const std::vector<std::byte> blob = random_bytes(blob_bytes, seed + 1);
  const std::filesystem::path dir = storage::make_temp_spill_dir("perfbench");
  {
    storage::FileStore store(dir);
    storage::ObjectKey key = 0;
    const double s = seconds_per_call(
        [&] {
          ++key;
          if (!store.store(key, blob).is_ok()) {
            throw std::runtime_error("storage probe: store failed");
          }
          auto loaded = store.load(key);
          if (!loaded.is_ok() || loaded.value() != blob) {
            throw std::runtime_error("storage probe: load mismatch");
          }
          (void)store.erase(key);
        },
        0.02);
    out.fixed["storage.roundtrip_ms"] = s * 1e3;
  }
  std::filesystem::remove_all(dir);
}

void probe_simnet(LayerSamples& out, std::size_t frame_bytes) {
  SpanLog::Scope span(spans(), "simnet.am_send_poll");
  net::Fabric fabric(2);
  std::uint64_t delivered = 0;
  const net::AmHandlerId h = fabric.endpoint(1).register_handler(
      [&](net::NodeId, util::ByteReader& payload) {
        delivered += payload.remaining();
      });
  const std::vector<std::byte> payload(std::max<std::size_t>(frame_bytes, 1));
  std::uint64_t sent = 0;
  const double s = seconds_per_call(
      [&] {
        fabric.endpoint(0).send(1, h, payload);
        sent += payload.size();
        while (fabric.endpoint(1).poll() == 0) {
        }
      },
      0.005);
  if (delivered != sent) throw std::runtime_error("simnet probe: lost bytes");
  out.fixed["simnet.am_us"] = s * 1e6;
}

void probe_tasking(LayerSamples& out, std::size_t pool_workers) {
  SpanLog::Scope span(spans(), "tasking.task_group");
  constexpr int kTasks = 64;
  auto pool = tasking::make_pool(tasking::PoolBackend::kWorkStealing,
                                 pool_workers);
  std::atomic<std::uint64_t> ran{0};
  std::uint64_t expected = 0;
  {
    // One group, reused: a finishing worker may still touch the group's
    // mutex after wait() returns, so it is destroyed only once the pool is
    // idle.
    tasking::TaskGroup group(*pool);
    const double s = seconds_per_call(
        [&] {
          for (int t = 0; t < kTasks; ++t) {
            group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          }
          group.wait();
          expected += kTasks;
        },
        0.005);
    pool->wait_idle();
    out.fixed["tasking.group_us"] = s * 1e6;
  }
  if (ran.load() != expected) throw std::runtime_error("tasking probe: lost tasks");
}

void probe_empty_run(LayerSamples& out) {
  SpanLog::Scope span(spans(), "core.cluster_run_empty");
  core::ClusterOptions options;
  options.nodes = kNodes;
  options.spill = core::SpillMedium::kMemory;
  core::Cluster cluster(options);
  const double s = seconds_per_call(
      [&] {
        if (cluster.run().timed_out) {
          throw std::runtime_error("empty run timed out");
        }
      },
      0.01);
  out.fixed["core.control.run_empty_ms"] = s * 1e3;
}

}  // namespace perfbench

// Log-structured spill engine vs blob-per-object FileStore on a synthetic
// spill churn workload: the same keyed store/load/erase sequence (many
// overwritten generations, periodic virtual ticks) is driven through both
// engines and the physical device operations are compared. Blob-per-object
// pays a payload write + truncate per store and an unlink per erase; the log
// engine batches everything into group commits and reclaims dead
// generations by tick-driven compaction. The acceptance bar (gates the
// engine, asserted in CI from the JSON meta): >= 5x fewer backend ops per
// spilled byte.

#include "bench_common.hpp"
#include "storage/file_store.hpp"
#include "storage/log_store.hpp"
#include "util/rng.hpp"

using namespace mrts;
using namespace mrts::bench;

namespace {

std::vector<std::byte> blob_for(std::uint64_t key, std::uint64_t gen,
                                std::size_t n) {
  util::Rng rng(key * 1000003 + gen);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng() & 0xFF);
  return v;
}

struct ChurnResult {
  storage::BackendStats stats;
  std::uint64_t device_ops = 0;
  double ops_per_mb = 0.0;
};

/// N keys x G generations of spill-sized blobs, a tick every 32 stores,
/// half the keys erased, then every survivor loaded once.
ChurnResult run_churn(storage::StorageBackend& store, std::size_t keys,
                      std::size_t generations, std::size_t blob_bytes) {
  std::uint64_t tick = 0;
  std::size_t since_tick = 0;
  for (std::size_t g = 0; g < generations; ++g) {
    for (std::size_t k = 1; k <= keys; ++k) {
      (void)store.store(k, blob_for(k, g, blob_bytes));
      if (++since_tick == 32) {
        store.tick(++tick);
        since_tick = 0;
      }
    }
  }
  for (std::size_t k = 1; k <= keys; k += 2) (void)store.erase(k);
  for (int i = 0; i < 64; ++i) store.tick(++tick);  // drain + compact
  for (std::size_t k = 2; k <= keys; k += 2) (void)store.load(k);

  ChurnResult out;
  out.stats = store.stats();
  out.device_ops = out.stats.device_write_ops + out.stats.device_read_ops;
  out.ops_per_mb = static_cast<double>(out.device_ops) /
                   (static_cast<double>(out.stats.bytes_written) / (1u << 20));
  return out;
}

}  // namespace

int main() {
  BenchReport report(
      "segment_log",
      "Log-structured spill store vs blob-per-object — 1024 keys x 8 "
      "generations of 4 KiB spill blobs, half erased, survivors reloaded "
      "(file-backed, tick-driven group commit + compaction)",
      "group commit amortizes per-blob device ops; target >= 5x fewer "
      "backend ops per spilled byte than blob-per-object");

  constexpr std::size_t kKeys = 1024;
  constexpr std::size_t kGenerations = 8;
  constexpr std::size_t kBlob = 4096;

  storage::FileStore file(storage::make_temp_spill_dir("bench-blob"));
  const ChurnResult blob = run_churn(file, kKeys, kGenerations, kBlob);

  storage::LogStoreOptions o;
  o.dir = storage::make_temp_spill_dir("bench-seglog");
  storage::LogStore log_store(o);
  const ChurnResult log = run_churn(log_store, kKeys, kGenerations, kBlob);

  Table t({"engine", "device writes", "device reads", "group commits",
           "compactions", "records dropped", "ops/MB spilled"});
  t.row("blob-per-object", blob.stats.device_write_ops,
        blob.stats.device_read_ops, blob.stats.group_commits,
        blob.stats.compactions, blob.stats.records_dropped, blob.ops_per_mb);
  t.row("segment-log", log.stats.device_write_ops, log.stats.device_read_ops,
        log.stats.group_commits, log.stats.compactions,
        log.stats.records_dropped, log.ops_per_mb);
  report.add("device ops", std::move(t));

  const double ratio = log.ops_per_mb > 0 ? blob.ops_per_mb / log.ops_per_mb
                                          : 0.0;
  const double write_ratio =
      log.stats.device_write_ops > 0
          ? static_cast<double>(blob.stats.device_write_ops) /
                static_cast<double>(log.stats.device_write_ops)
          : 0.0;
  std::printf("# backend ops per spilled byte: blob-per-object/segment-log "
              "= %.1fx (writes alone: %.1fx)\n",
              ratio, write_ratio);

  report.set_meta("blob_device_ops", std::to_string(blob.device_ops));
  report.set_meta("log_device_ops", std::to_string(log.device_ops));
  report.set_meta("log_group_commits",
                  std::to_string(log.stats.group_commits));
  report.set_meta("log_compactions", std::to_string(log.stats.compactions));
  report.set_meta("ops_ratio", util::format("{:.2f}", ratio));
  report.set_meta("write_ops_ratio", util::format("{:.2f}", write_ratio));
  return 0;
}

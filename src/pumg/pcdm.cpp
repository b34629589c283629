#include "pumg/pcdm.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "util/timer.hpp"

namespace mrts::pumg {
namespace {

/// Per-strip mailbox + scheduling flag for the asynchronous protocol.
struct StripBox {
  std::mutex mutex;
  std::vector<BoundarySplit> mail;
  bool scheduled = false;  // guarded by mutex
};

}  // namespace

MeshRunStats run_pcdm(const MeshProblem& problem, const PcdmConfig& config,
                      tasking::TaskPool& pool,
                      std::vector<Subdomain>* out_subs,
                      Decomposition* out_decomp) {
  util::WallTimer timer;
  Decomposition decomp = make_strips(problem.domain, config.strips);
  const auto n = static_cast<std::uint32_t>(decomp.size());

  std::vector<Subdomain> subs(n);
  tasking::parallel_for(pool, 0, n, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      subs[i] = Subdomain(problem.domain, decomp.cells[i].rect,
                          decomp.cells[i].extra_border_points);
    }
  });

  std::vector<std::unique_ptr<StripBox>> boxes;
  boxes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    boxes.push_back(std::make_unique<StripBox>());
  }

  std::atomic<std::size_t> active{0};
  std::atomic<std::uint64_t> splits_exchanged{0};
  std::atomic<std::uint64_t> turns{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;

  // Forward declaration dance: schedule() submits turn(i) tasks.
  std::function<void(std::uint32_t)> schedule;
  std::function<void(std::uint32_t)> turn;

  schedule = [&](std::uint32_t i) {
    {
      std::lock_guard lock(boxes[i]->mutex);
      if (boxes[i]->scheduled) return;
      boxes[i]->scheduled = true;
    }
    active.fetch_add(1, std::memory_order_acq_rel);
    pool.submit([&, i] { turn(i); });
  };

  // The last task out decrements under done_mutex, and the waiter below
  // takes done_mutex once after it sees zero, so nothing this function owns
  // is destroyed while that task still holds the lock.
  auto retire = [&] {
    std::lock_guard lock(done_mutex);
    if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_cv.notify_all();
    }
  };

  std::atomic<bool> failed{false};
  turn = [&](std::uint32_t i) {
    if (turns.fetch_add(1, std::memory_order_relaxed) > config.max_turns) {
      // Throwing from a pool task would terminate; flag and retire instead.
      failed.store(true, std::memory_order_release);
      {
        std::lock_guard lock(boxes[i]->mutex);
        boxes[i]->scheduled = false;
      }
      retire();
      return;
    }
    for (;;) {
      std::vector<BoundarySplit> mail;
      {
        std::lock_guard lock(boxes[i]->mutex);
        mail = std::move(boxes[i]->mail);
        boxes[i]->mail.clear();
      }
      for (const BoundarySplit& s : mail) {
        subs[i].apply_mirror_split(s);
      }
      auto outcome = subs[i].refine(problem.refine);
      // Aggregate: one batch per neighbour per pass.
      std::array<std::vector<BoundarySplit>, 4> per_side;
      for (BoundarySplit& s : outcome.splits) {
        per_side[s.side].push_back(std::move(s));
      }
      for (int side = 0; side < 4; ++side) {
        for (BoundarySplit& s : per_side[side]) {
          const auto target = decomp.neighbor_for(i, s.side, s.m);
          if (!target) continue;
          {
            std::lock_guard lock(boxes[*target]->mutex);
            boxes[*target]->mail.push_back(std::move(s));
          }
          splits_exchanged.fetch_add(1, std::memory_order_relaxed);
          schedule(*target);
        }
      }
      // Retire only if the mailbox is still empty; otherwise take another
      // pass (a neighbour posted while we were refining).
      std::lock_guard lock(boxes[i]->mutex);
      if (boxes[i]->mail.empty()) {
        boxes[i]->scheduled = false;
        break;
      }
    }
    retire();
  };

  // Seed: deliver construction-time recovery splits, then kick every strip.
  for (std::uint32_t i = 0; i < n; ++i) {
    for (const BoundarySplit& s : subs[i].initial_splits()) {
      const auto target = decomp.neighbor_for(i, s.side, s.m);
      if (!target) continue;
      boxes[*target]->mail.push_back(s);
      splits_exchanged.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) schedule(i);

  // Wait for quiescence, helping the pool drain in the meantime.
  while (active.load(std::memory_order_acquire) != 0) {
    if (!pool.help_one()) {
      std::unique_lock lock(done_mutex);
      if (active.load(std::memory_order_acquire) == 0) break;
      done_cv.wait_for(lock, std::chrono::microseconds(200));
    }
  }
  { std::lock_guard lock(done_mutex); }
  if (failed.load(std::memory_order_acquire)) {
    throw std::runtime_error("run_pcdm: message exchange did not converge");
  }

  MeshRunStats stats;
  stats.boundary_splits_exchanged = splits_exchanged.load();
  stats.rounds = turns.load();
  stats.quality_goal_deg = problem.refine.min_angle_deg;
  for (const Subdomain& sub : subs) accumulate_stats(stats, sub);
  stats.wall_seconds = timer.seconds();
  if (out_subs != nullptr) *out_subs = std::move(subs);
  if (out_decomp != nullptr) *out_decomp = std::move(decomp);
  return stats;
}

}  // namespace mrts::pumg

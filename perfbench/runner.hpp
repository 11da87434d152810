// The benchmark's phases, generic over the workload adapters of
// workloads.hpp:
//
//  - run_real: one OS thread per CPU the process may run on (nproc), each
//    pinned to its own CPU, in a closed loop (each issues its next
//    operation only after the previous one committed) for a warm-up
//    interval and then a fixed number of equal segments. Throughput and
//    p99 are taken per segment, so a host stall spoils one segment, not
//    the run. Untraced runs use the static-dispatch tier; traced runs go
//    through Tx and the TracedTx/TimedCm wrappers.
//  - run_sim: the same operations on the deterministic VirtualScheduler
//    with as many simulated threads, for a fixed operation count.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dispatch.hpp"
#include "harness.hpp"
#include "sched/virtual_scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Timing of one real-thread run: a warm-up interval (discarded), then
/// kSegments equal measured segments.
struct Plan {
  static constexpr unsigned kSegments = 5;
  double warmup_s = 0.1;
  double segment_s = 0.1;

  /// Split `slot_s` seconds: one sixth warm-up, five segments.
  static Plan for_slot(double slot_s) {
    return Plan{slot_s / 6.0, slot_s / 6.0};
  }
};

struct RealOut {
  std::vector<double> seg_cps;     ///< committed operations per second
  std::vector<double> seg_p99_ns;  ///< per-segment p99 operation latency
  std::uint64_t lat_samples = 0;   ///< operations timed in measured segments
  semstm::TxStats stats;           ///< whole run, warm-up included
  LayerTotals layers;              ///< traced runs, measured segments only
  double setup_s = 0.0;            ///< construction, prefill, thread start
  std::string check_error;         ///< empty when the output check held
};

struct SimOut {
  double commits_per_mtick = 0.0;
  double wall_s = 0.0;  ///< VirtualScheduler::run only
  std::uint64_t makespan = 0;
  semstm::TxStats stats;
  semstm::tmir::BarrierCounts barriers;
  std::string check_error;
};

namespace detail {

/// Everything a worker writes while it runs, in one cache-line-aligned
/// block, so the benchmark's own recording never shares a line between
/// workers. Index 0 of ops/hist is the warm-up.
struct alignas(64) Worker {
  explicit Worker(std::uint64_t seed) : rng(seed) {}
  Rng rng;
  std::array<std::uint64_t, Plan::kSegments + 1> ops{};
  std::array<LatencyHist, Plan::kSegments + 1> hist{};
  Timeline tl;
  LayerTotals layers;
};

/// Closed loop until the segment index turns negative. Operations are
/// attributed to the segment in which they completed; each one's latency
/// runs from the previous operation's completion, so one clock read per
/// operation suffices.
template <typename TxT, typename W>
void closed_loop(W& w, unsigned tid, const std::atomic<int>& segment,
                 Worker& me, Timeline* tl) {
  std::uint64_t prev = now_ns();
  for (;;) {
    if (tl != nullptr) tl->start_op(prev);
    bool committed = true;
    try {
      w.template op<TxT>(tid, me.rng);
    } catch (...) {
      // atomically() counted it in TxStats::exceptions; keep the load on
      // but leave it out of the committed-operation figures.
      committed = false;
    }
    const std::uint64_t t = tl != nullptr ? tl->cut(tl->gap) : now_ns();
    const int s = segment.load(std::memory_order_relaxed);
    if (s < 0) return;
    if (committed) ++me.ops[static_cast<std::size_t>(s)];
    if (committed && s > 0) {
      me.hist[static_cast<std::size_t>(s)].record(t - prev);
      if (tl != nullptr) me.layers += tl->op();
    }
    prev = t;
  }
}

}  // namespace detail

/// The CPUs this process may run on; the real phase runs one pinned worker
/// on each. Unpinned, the kernel sometimes keeps all workers of a freshly
/// started process on one CPU for a while: they time-share instead of
/// running in parallel, and contended workloads then run in a regime of
/// their own (README.md, open questions).
inline std::vector<int> worker_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: one unpinned worker
  return cpus;
}

template <typename W>
RealOut run_real(const std::string& algo_name,
                 const typename W::Shared& shared,
                 const std::vector<int>& cpus, std::uint64_t seed,
                 const Plan& plan, bool traced) {
  using namespace std::chrono;
  const auto threads = static_cast<unsigned>(cpus.size());
  RealOut out;
  constexpr std::size_t nseg = Plan::kSegments + 1;
  semstm::SplitMix64 seeder(seed);
  const std::uint64_t setup_seed = seeder.next();
  std::vector<detail::Worker> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) workers.emplace_back(seeder.next());

  const std::uint64_t t_setup = now_ns();
  auto algo = semstm::make_algorithm(algo_name);
  const semstm::AlgoId id = semstm::algo_id(algo_name);
  W w(algo->semantic(), shared, threads);
  Rng setup_rng(setup_seed);
  w.setup(setup_rng);
  std::vector<std::unique_ptr<semstm::ThreadCtx>> ctxs;
  for (unsigned t = 0; t < threads; ++t) {
    const std::uint64_t cm_seed = seeder.next();
    if (traced) {
      Timeline& tl = workers[t].tl;
      ctxs.push_back(std::make_unique<semstm::ThreadCtx>(
          std::make_unique<TracedTx>(algo->make_tx(), tl), cm_seed,
          std::make_unique<TimedCm>(
              std::make_unique<semstm::BackoffCm>(cm_seed), tl)));
    } else {
      ctxs.push_back(
          std::make_unique<semstm::ThreadCtx>(algo->make_tx(), cm_seed));
    }
  }

  std::vector<std::uint64_t> bound(nseg + 1);
  std::atomic<int> segment{0};
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  // Stops and joins every started worker on all paths, including a failed
  // thread start part-way through the pool.
  struct JoinAll {
    std::vector<std::thread>& pool;
    std::atomic<int>& segment;
    std::atomic<bool>& go;
    ~JoinAll() {
      segment.store(-1, std::memory_order_relaxed);
      go.store(true, std::memory_order_release);
      for (std::thread& th : pool) {
        if (th.joinable()) th.join();
      }
    }
  } join_all{pool, segment, go};
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      if (cpus[t] >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[t], &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      }
      semstm::CtxBinder bind(*ctxs[t]);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      detail::Worker& me = workers[t];
      if (traced) {
        tls_timeline() = &me.tl;
        detail::closed_loop<semstm::Tx>(w, t, segment, me, &me.tl);
        tls_timeline() = nullptr;
      } else {
        semstm::dispatch_algorithm(id, [&](auto tag) {
          using TxT = typename decltype(tag)::tx_type;
          detail::closed_loop<TxT>(w, t, segment, me, nullptr);
        });
      }
    });
  }
  while (ready.load(std::memory_order_acquire) != threads) {
    std::this_thread::yield();
  }
  out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  const auto start = steady_clock::now();
  go.store(true, std::memory_order_release);
  bound[0] = now_ns();
  auto at = [&](double s) {
    return start + duration_cast<steady_clock::duration>(duration<double>(s));
  };
  std::this_thread::sleep_until(at(plan.warmup_s));
  for (unsigned s = 1; s <= Plan::kSegments; ++s) {
    segment.store(static_cast<int>(s), std::memory_order_relaxed);
    bound[s] = now_ns();
    std::this_thread::sleep_until(at(plan.warmup_s + s * plan.segment_s));
  }
  segment.store(-1, std::memory_order_relaxed);
  bound[nseg] = now_ns();
  for (std::thread& th : pool) th.join();

  for (std::size_t s = 1; s < nseg; ++s) {
    std::uint64_t ops = 0;
    LatencyHist merged;
    for (const detail::Worker& wk : workers) {
      ops += wk.ops[s];
      merged.merge(wk.hist[s]);
    }
    const double dt = static_cast<double>(bound[s + 1] - bound[s]) * 1e-9;
    out.seg_cps.push_back(static_cast<double>(ops) / dt);
    out.seg_p99_ns.push_back(merged.quantile(0.99));
    out.lat_samples += merged.count();
  }
  for (const auto& ctx : ctxs) out.stats += ctx->tx->stats;
  for (const detail::Worker& wk : workers) out.layers += wk.layers;
  out.check_error = w.check();
  return out;
}

template <typename W>
SimOut run_sim(const std::string& algo_name, const typename W::Shared& shared,
               unsigned threads, std::uint64_t seed,
               std::uint64_t ops_per_thread) {
  SimOut out;
  semstm::SplitMix64 seeder(seed);
  auto algo = semstm::make_algorithm(algo_name);
  const semstm::AlgoId id = semstm::algo_id(algo_name);
  W w(algo->semantic(), shared, threads);
  Rng setup_rng(seeder.next());
  w.setup(setup_rng);
  std::vector<std::unique_ptr<semstm::ThreadCtx>> ctxs;
  std::vector<Rng> rngs;
  for (unsigned t = 0; t < threads; ++t) {
    const std::uint64_t s = seeder.next();
    ctxs.push_back(
        std::make_unique<semstm::ThreadCtx>(algo->make_tx(), s ^ 0xB0FF));
    rngs.emplace_back(s);
  }
  // The figure benches' scheduling slack (bench/figure_common.hpp).
  semstm::sched::VirtualScheduler sim(
      semstm::sched::SimOptions{.seed = seeder.next(), .quantum = 24});
  const std::uint64_t t0 = now_ns();
  const semstm::sched::SimResult r = sim.run(threads, [&](unsigned tid) {
    semstm::CtxBinder bind(*ctxs[tid]);
    semstm::dispatch_algorithm(id, [&](auto tag) {
      using TxT = typename decltype(tag)::tx_type;
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        try {
          w.template op<TxT>(tid, rngs[tid]);
        } catch (...) {
          // Counted in TxStats::exceptions.
        }
      }
    });
  });
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.makespan = r.makespan;
  for (const auto& ctx : ctxs) out.stats += ctx->tx->stats;
  out.commits_per_mtick = r.makespan == 0
                              ? 0.0
                              : static_cast<double>(out.stats.commits) * 1e6 /
                                    static_cast<double>(r.makespan);
  out.barriers = w.barriers();
  out.check_error = w.check();
  return out;
}

}  // namespace perfbench

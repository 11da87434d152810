// Global commit clocks — the serialization hot spots of the NOrec and TL2
// families, reworked for real multicore (DESIGN.md §4.16).
//
//  - SeqLock: NOrec's single global timestamped lock (odd = a writer is in
//    its commit phase). Paper §4.1 / NOrec [Dalessandro et al., PPoPP'10].
//    sample_even() spins locally with bounded escalation (SpinWait) so a
//    descheduled committer cannot make every reader burn a core.
//
//  - VersionClock: TL2's global version timestamp. fetch_increment() is
//    GV4-style [Dice/Shalev/Shavit, TL2 release notes]: one CAS attempt;
//    on failure the committer ADOPTS the value another committer just
//    installed instead of retrying the RMW. Under heavy commit traffic the
//    clock line takes one write per "round" of concurrent committers
//    instead of one per committer — the classic fetch_add ping-pongs the
//    line once per commit. The adopter's stamp is shared, which is why the
//    ClockStamp carries `exclusive`: TL2's skip-validation fast path
//    (wv == rv+1) is sound only for the unique CAS winner (see
//    Tl2CoreT::commit and DESIGN.md §4.16 for the write-skew argument).
//    S-TL2 commits through the same fetch_increment: the drawn wv, not a
//    CAS after validation (Alg. 7), is its serialization point.
//
// Both clocks live alone on a cache line (Padded): they are the single
// most-contended words in the system, and anything sharing their line
// would be falsely invalidated on every commit.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/spinwait.hpp"
#include "sched/yieldpoint.hpp"
#include "util/padded.hpp"

namespace semstm {

class SeqLock {
 public:
  /// Spin until the value is even (no writer committing) and return it.
  /// Local spinning: pure acquire loads between pauses — no write traffic
  /// on the clock line while a committer works. Not noexcept: in sim the
  /// spin is a yield point, and under a truncating ScheduleController
  /// yield points raise ScheduleStopped.
  std::uint64_t sample_even() const {
    SpinWait spin;
    for (;;) {
      const std::uint64_t t = value_.value.load(std::memory_order_acquire);
      if ((t & 1) == 0) return t;
      spin.pause();
    }
  }

  std::uint64_t load() const noexcept {
    return value_.value.load(std::memory_order_acquire);
  }

  /// Try to enter the commit phase: CAS snapshot -> snapshot|1.
  bool try_lock(std::uint64_t snapshot) noexcept {
    std::uint64_t expected = snapshot;
    return value_.value.compare_exchange_strong(expected, snapshot + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

  /// Leave the commit phase, publishing a new even timestamp.
  void unlock(std::uint64_t locked_value) noexcept {
    value_.value.store(locked_value + 1, std::memory_order_release);
  }

  /// Test hook: place the clock near its wrap point so the (otherwise
  /// unreachable) kClockOverflow abort path can be exercised. Only call
  /// while no transaction is live on this clock.
  void set_for_test(std::uint64_t v) noexcept {
    value_.value.store(v, std::memory_order_release);
  }

 private:
  Padded<std::atomic<std::uint64_t>> value_{};
  static_assert(alignof(Padded<std::atomic<std::uint64_t>>) >= kCacheLine,
                "commit clock must own its cache line");
};

/// Result of a VersionClock advance: the write version to stamp orecs
/// with, and whether this committer uniquely produced it. Two concurrent
/// committers may share an adopted wv (GV4) — their write sets are
/// necessarily disjoint (both hold all their orec locks), but neither
/// adopter may take the skip-validation fast path.
struct ClockStamp {
  std::uint64_t wv = 0;
  bool exclusive = false;
};

class VersionClock {
 public:
  std::uint64_t load() const noexcept {
    return value_.value.load(std::memory_order_acquire);
  }

  /// TL2: advance the clock and return the new write version (GV4: one
  /// CAS; on failure adopt the concurrent committer's value). In the
  /// 1-carrier fiber sim the CAS cannot fail — there is no yield point
  /// between the load and the CAS — so sim behavior is bit-identical to
  /// the old unconditional fetch_add.
  ClockStamp fetch_increment() noexcept {
    std::uint64_t seen = value_.value.load(std::memory_order_acquire);
    if (value_.value.compare_exchange_strong(seen, seen + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return {seen + 1, true};
    }
    // Adopt: `seen` was refreshed by the failed CAS to a value some other
    // committer just installed; it is > our stale read, so it orders our
    // write-back after every version we validated against. Shared stamp —
    // never report exclusivity.
    return {seen, false};
  }

  /// Test hook: see SeqLock::set_for_test.
  void set_for_test(std::uint64_t v) noexcept {
    value_.value.store(v, std::memory_order_release);
  }

 private:
  Padded<std::atomic<std::uint64_t>> value_{};
  static_assert(alignof(Padded<std::atomic<std::uint64_t>>) >= kCacheLine,
                "commit clock must own its cache line");
};

}  // namespace semstm

// Contention management: the pluggable inter-attempt policy of the
// atomically() retry loop.
//
// The paper's evaluation (§5) relies on the baseline algorithms' native
// progress behaviour plus a retry/backoff loop; which loop matters — CM
// choice is known to dominate STM behaviour under contention (Singh et al.,
// Synchrobench STM comparison). Three policies are provided:
//
//   backoff  — randomized exponential backoff (the historical default).
//   yield    — linear politeness: after the k-th consecutive abort spin for
//              k * kStep pause units (capped). Deterministic, gentle; a
//              stand-in for sched_yield() that works under the fiber
//              simulator's virtual clock.
//   bounded  — randomized exponential backoff, but after `retry_limit`
//              consecutive aborts of one transaction the policy escalates:
//              atomically() acquires the global serial-irrevocable token
//              (runtime/serial_gate.hpp) and the starving transaction runs
//              alone, guaranteed to commit. This is the progress backstop
//              the pure policies lack: a pathological transaction can
//              otherwise livelock/starve forever.
//
// Selection is per run: `--cm=NAME --retry-limit=N` on every bench binary.
//
// Observability (src/obs): in SEMSTM_TRACE builds atomically() times each
// on_abort() wait into TxStats::lat_backoff and records an escalation as a
// kFallback trace event, so a policy's pacing behaviour is directly visible
// in the latency histograms and the Chrome trace.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/backoff.hpp"
#include "sched/yieldpoint.hpp"

namespace semstm {

/// Consecutive-abort count at which the bounded policy goes serial.
/// Large enough that ordinary contention never escalates (aborts under the
/// figure workloads resolve within a handful of retries), small enough to
/// cap the tail: 2^64 backoff would be reached long after.
inline constexpr std::uint64_t kDefaultRetryLimit = 64;

class ContentionManager {
 public:
  virtual ~ContentionManager() = default;

  virtual const char* name() const noexcept = 0;

  /// Called by atomically() after the `consecutive`-th consecutive abort
  /// (1-based) of the current transaction; performs the inter-attempt wait.
  /// Returns true to request escalation to the serial-irrevocable fallback
  /// for the next attempt (the caller then stops consulting the policy for
  /// this transaction — the token guarantees commit).
  virtual bool on_abort(std::uint64_t consecutive) = 0;

  /// Called when the transaction finishes for good — commit, or a user
  /// exception abandoning it. Resets per-transaction pacing state.
  virtual void on_finish() noexcept {}
};

/// Randomized exponential backoff (today's behaviour). Never escalates.
class BackoffCm final : public ContentionManager {
 public:
  explicit BackoffCm(std::uint64_t seed) : backoff_(seed) {}
  const char* name() const noexcept override { return "backoff"; }
  bool on_abort(std::uint64_t) override {
    backoff_.pause();
    return false;
  }
  void on_finish() noexcept override { backoff_.reset(); }

 private:
  Backoff backoff_;
};

/// Linear yielding: the k-th consecutive abort waits k * kStep pause units,
/// capped. Deterministic by design (no RNG), so lockstep resonance is
/// possible — it exists as the simple/fair contrast policy.
class YieldCm final : public ContentionManager {
 public:
  const char* name() const noexcept override { return "yield"; }
  bool on_abort(std::uint64_t consecutive) override {
    const std::uint64_t steps =
        (consecutive < kMaxSteps ? consecutive : kMaxSteps) * kStep;
    for (std::uint64_t i = 0; i < steps; ++i) sched::spin_pause();
    return false;
  }

 private:
  static constexpr std::uint64_t kStep = 4;
  static constexpr std::uint64_t kMaxSteps = 64;
};

/// Bounded retry with serial-irrevocable fallback: exponential backoff up
/// to `retry_limit` consecutive aborts, then escalate.
class BoundedRetryCm final : public ContentionManager {
 public:
  BoundedRetryCm(std::uint64_t seed, std::uint64_t retry_limit)
      : backoff_(seed),
        retry_limit_(retry_limit == 0 ? 1 : retry_limit) {}
  const char* name() const noexcept override { return "bounded"; }
  bool on_abort(std::uint64_t consecutive) override {
    if (consecutive >= retry_limit_) return true;  // go serial, no wait
    backoff_.pause();
    return false;
  }
  void on_finish() noexcept override { backoff_.reset(); }

 private:
  Backoff backoff_;
  std::uint64_t retry_limit_;
};

/// Create a policy by name: "backoff", "yield", "bounded".
/// Throws std::invalid_argument for unknown names.
inline std::unique_ptr<ContentionManager> make_contention_manager(
    std::string_view name, std::uint64_t seed,
    std::uint64_t retry_limit = kDefaultRetryLimit) {
  if (name == "backoff") return std::make_unique<BackoffCm>(seed);
  if (name == "yield") return std::make_unique<YieldCm>();
  if (name == "bounded") {
    return std::make_unique<BoundedRetryCm>(seed, retry_limit);
  }
  throw std::invalid_argument("unknown contention manager: " +
                              std::string(name));
}

/// All registered policy names, in documentation order.
inline const std::vector<std::string>& contention_manager_names() {
  static const std::vector<std::string> names = {"backoff", "yield",
                                                 "bounded"};
  return names;
}

}  // namespace semstm

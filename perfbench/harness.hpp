// Measurement primitives of the benchmark: the clock, an operation-latency
// histogram fine enough for p99, and the traced run's per-layer timeline
// (a Tx wrapper and a contention-manager wrapper that time every call
// into the TM runtime from outside it).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/tx.hpp"
#include "runtime/contention.hpp"

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Quantile of a sample by linear interpolation between order statistics
/// (q in [0,1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Operation latencies in ns, 64 linear sub-buckets per power of two: a
/// bucket is at most 1/64 of its value wide, and quantile() interpolates
/// inside it, so p99 resolves to about 1% (obs::LatencyHistogram's
/// power-of-two buckets can only move p99 in steps of 2x). Fixed size,
/// 10.5 KiB, so recording never allocates.
class LatencyHist {
 public:
  void record(std::uint64_t ns) noexcept {
    ++counts_[index(ns)];
    ++total_;
  }

  void merge(const LatencyHist& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  std::uint64_t count() const noexcept { return total_; }

  /// The q-quantile in ns (0 when empty).
  double quantile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_);
    double below = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = counts_[i];
      if (c > 0 && below + c >= rank) {
        const double frac = std::clamp((rank - below) / c, 0.0, 1.0);
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      below += c;
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kOctaves = 40;  // up to 2^46 ns
  static constexpr std::size_t kBuckets = kSub * (kOctaves + 1);

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const std::size_t i = (e - kSubBits + 1) * kSub +
                          static_cast<std::size_t>((v >> (e - kSubBits)) - kSub);
    return std::min(i, kBuckets - 1);
  }
  static std::uint64_t lower(std::size_t i) noexcept {
    if (i < kSub) return i;
    const std::size_t shift = i / kSub - 1;
    return static_cast<std::uint64_t>(kSub + i % kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) noexcept {
    return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

  std::array<std::uint32_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

// -- Traced run ---------------------------------------------------------------

/// The layers an operation's time is split into. kBody is time between TM
/// calls (workload code and the retry loop itself); kInterp is the same
/// inside tmir::execute, i.e. the interpreter's self time.
enum Layer : unsigned {
  kBody,
  kInterp,
  kBegin,
  kRead,
  kWrite,
  kSem,  ///< cmp, cmp2, cmp_or and inc
  kCommit,
  kRollback,
  kBackoff,  ///< contention manager's wait after an abort
  kLayerCount,
};

/// Raw per-layer sums over measured operations.
struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> ns{};  ///< gross interval time
  std::array<std::uint64_t, kLayerCount> n{};   ///< intervals (one per read)
  std::uint64_t ops = 0;
  std::uint64_t op_ns = 0;     ///< gross operation time (outer timestamps)
  std::uint64_t waste_ns = 0;  ///< begin .. rollback of aborted attempts
  std::uint64_t waste_n = 0;   ///< intervals inside aborted attempts

  void operator+=(const LayerTotals& o) noexcept {
    for (unsigned l = 0; l < kLayerCount; ++l) {
      ns[l] += o.ns[l];
      n[l] += o.n[l];
    }
    ops += o.ops;
    op_ns += o.op_ns;
    waste_ns += o.waste_ns;
    waste_n += o.waste_n;
  }

  /// Layer time with the calibrated cost of one clock read removed from
  /// every interval.
  double self_ns(unsigned l, double read_ns) const noexcept {
    return static_cast<double>(ns[l]) - static_cast<double>(n[l]) * read_ns;
  }
  double op_self_ns(double read_ns) const noexcept {
    double s = 0.0;
    for (unsigned l = 0; l < kLayerCount; ++l) s += self_ns(l, read_ns);
    return s;
  }
  double waste_self_ns(double read_ns) const noexcept {
    return static_cast<double>(waste_ns) -
           static_cast<double>(waste_n) * read_ns;
  }
};

/// One thread's operation timeline. Every clock read closes the interval
/// since the previous read and charges it to one layer, so the layers
/// partition the operation's measured time exactly; the only estimate is
/// the per-read cost subtracted afterwards (LayerTotals::self_ns).
class Timeline {
 public:
  /// Layer charged for time between TM calls.
  Layer gap = kBody;

  void start_op(std::uint64_t t) noexcept {
    op_start_ = t;
    last_ = t;
    cur_ = LayerTotals{};
    gap = kBody;
  }

  std::uint64_t cut(Layer l) noexcept {
    const std::uint64_t t = now_ns();
    cur_.ns[l] += t - last_;
    ++cur_.n[l];
    ++cuts_;
    last_ = t;
    return t;
  }

  void attempt_started() noexcept {
    attempt_start_ = last_;
    attempt_cuts_ = cuts_;
  }
  void attempt_aborted() noexcept {
    cur_.waste_ns += last_ - attempt_start_;
    cur_.waste_n += cuts_ - attempt_cuts_;
  }

  /// The finished operation's sums (call after the op's final cut).
  const LayerTotals& op() noexcept {
    cur_.ops = 1;
    cur_.op_ns = last_ - op_start_;
    return cur_;
  }

 private:
  LayerTotals cur_;
  std::uint64_t op_start_ = 0;
  std::uint64_t last_ = 0;
  std::uint64_t cuts_ = 0;
  std::uint64_t attempt_start_ = 0;
  std::uint64_t attempt_cuts_ = 0;
};

/// Charges the time up to its construction to the current gap layer and
/// the time until its destruction (normal return or TxAbort unwinding) to
/// `layer`.
class Span {
 public:
  Span(Timeline& tl, Layer layer) : tl_(tl), layer_(layer) { tl_.cut(tl_.gap); }
  ~Span() { tl_.cut(layer_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Timeline& tl_;
  Layer layer_;
};

/// Marks a tmir::execute call: gaps between barriers inside it are
/// interpreter time.
class InterpSpan {
 public:
  explicit InterpSpan(Timeline& tl) : tl_(tl) {
    tl_.cut(tl_.gap);
    tl_.gap = kInterp;
  }
  ~InterpSpan() {
    tl_.cut(kInterp);
    tl_.gap = kBody;
  }
  InterpSpan(const InterpSpan&) = delete;
  InterpSpan& operator=(const InterpSpan&) = delete;

 private:
  Timeline& tl_;
};

/// The traced thread's timeline, or null on untraced threads.
inline Timeline*& tls_timeline() noexcept {
  thread_local Timeline* tl = nullptr;
  return tl;
}

/// A descriptor wrapper owned by the benchmark: it shares the inner
/// descriptor's core (stats, gate, abort attribution) and times every
/// virtual call before forwarding it.
class TracedTx final : public semstm::Tx {
 public:
  TracedTx(std::unique_ptr<semstm::Tx> inner, Timeline& tl)
      : Tx(inner->core_base()), inner_(std::move(inner)), tl_(tl) {}

  const char* algorithm() const noexcept override {
    return inner_->algorithm();
  }
  void* core_ptr() noexcept override { return inner_->core_ptr(); }

  void begin() override {
    Span s(tl_, kBegin);
    tl_.attempt_started();
    inner_->begin();
  }
  void commit() override {
    Span s(tl_, kCommit);
    inner_->commit();
  }
  void rollback() override {
    {
      Span s(tl_, kRollback);
      inner_->rollback();
    }
    tl_.attempt_aborted();
  }
  semstm::word_t read(const semstm::tword* addr) override {
    Span s(tl_, kRead);
    return inner_->read(addr);
  }
  void write(semstm::tword* addr, semstm::word_t value) override {
    Span s(tl_, kWrite);
    inner_->write(addr, value);
  }
  bool cmp(const semstm::tword* addr, semstm::Rel rel,
           semstm::word_t operand) override {
    Span s(tl_, kSem);
    return inner_->cmp(addr, rel, operand);
  }
  bool cmp2(const semstm::tword* a, semstm::Rel rel,
            const semstm::tword* b) override {
    Span s(tl_, kSem);
    return inner_->cmp2(a, rel, b);
  }
  bool cmp_or(const semstm::CmpTerm* terms, std::size_t n) override {
    Span s(tl_, kSem);
    return inner_->cmp_or(terms, n);
  }
  void inc(semstm::tword* addr, semstm::word_t delta) override {
    Span s(tl_, kSem);
    inner_->inc(addr, delta);
  }

 private:
  std::unique_ptr<semstm::Tx> inner_;
  Timeline& tl_;
};

/// Times the contention manager's post-abort wait.
class TimedCm final : public semstm::ContentionManager {
 public:
  TimedCm(std::unique_ptr<semstm::ContentionManager> inner, Timeline& tl)
      : inner_(std::move(inner)), tl_(tl) {}
  const char* name() const noexcept override { return inner_->name(); }
  bool on_abort(std::uint64_t consecutive) override {
    Span s(tl_, kBackoff);
    return inner_->on_abort(consecutive);
  }
  void on_finish() noexcept override { inner_->on_finish(); }

 private:
  std::unique_ptr<semstm::ContentionManager> inner_;
  Timeline& tl_;
};

/// Cost of one clock read in ns: the median over batches of back-to-back
/// reads, i.e. what an empty timer pair measures.
inline double calibrate_clock_read_ns() {
  constexpr int kBatches = 51;
  constexpr int kReads = 2000;
  std::vector<double> per_read;
  per_read.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t t = t0;
    for (int i = 0; i < kReads; ++i) t = now_ns();
    per_read.push_back(static_cast<double>(t - t0) / kReads);
  }
  return median(std::move(per_read));
}

}  // namespace perfbench

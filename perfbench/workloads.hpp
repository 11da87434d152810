// The benchmark's three workloads. Each adapter offers the same surface to
// the runner (runner.hpp):
//
//   Shared          state compiled once per round and shared by all four
//                   algorithms' instances (the tmir kernel for gcc-kmeans)
//   compile()       builds Shared (runs the tmir passes for gcc-kmeans)
//   W(semantic, shared, threads); setup(rng)
//   op<TxT>(tid, rng)  one closed-loop operation = one transaction; TxT is
//                   a concrete core (untraced, static dispatch) or Tx
//                   (traced: atomically<Tx> reaches the TracedTx wrapper)
//   check()         the output check; empty string when it holds
//   barriers()      tmir barriers executed so far (none outside gcc-kmeans)
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "containers/tarray.hpp"
#include "core/algorithm.hpp"
#include "core/atomically.hpp"
#include "harness.hpp"
#include "tmir/analysis/lint.hpp"
#include "tmir/analysis/verify.hpp"
#include "tmir/interp.hpp"
#include "tmir/kernels.hpp"
#include "tmir/passes.hpp"
#include "workloads/bank.hpp"
#include "workloads/hashtable_wl.hpp"

namespace perfbench {

using semstm::Rng;

inline void add_barriers(semstm::tmir::BarrierCounts& to,
                         const semstm::tmir::BarrierCounts& from) {
  to.tm_loads += from.tm_loads;
  to.tm_stores += from.tm_stores;
  to.tm_cmps += from.tm_cmps;
  to.tm_incs += from.tm_incs;
  to.local_loads += from.local_loads;
  to.local_stores += from.local_stores;
}

/// Fig. 1a: 10 set/get operations per transaction on the 85%-full
/// open-addressing table, so probes read long runs of cells. Read
/// barrier, read-set and validation do most of the work.
class HashtableBench {
 public:
  static constexpr const char* kName = "hashtable";
  // Each sweep starts from a fresh prefill that its inserts and removes
  // move the table away from, so a sweep's figure depends on its input
  // seed; this many operations keep the run's median of eight sweeps
  // within a few percent across seeds.
  static constexpr std::uint64_t kSimOpsPerThread = 2400;
  struct Shared {};
  static Shared compile() { return {}; }

  HashtableBench(bool semantic, const Shared&, unsigned)
      : wl_(semstm::HashtableWorkload::Params{}, semantic) {}

  void setup(Rng& rng) { wl_.setup(rng); }

  template <typename TxT>
  void op(unsigned tid, Rng& rng) {
    wl_.template op_t<TxT>(tid, rng);
  }

  /// Every key of the key space found by contains() must account for
  /// every occupied cell: a lost, duplicated or foreign key breaks it.
  std::string check() {
    auto algo = semstm::make_algorithm("cgl");
    semstm::ThreadCtx ctx(algo->make_tx());
    semstm::CtxBinder bind(ctx);
    const std::int64_t key_space = static_cast<std::int64_t>(
        semstm::HashtableWorkload::Params{}.key_space);
    std::size_t found = 0;
    for (std::int64_t k = 0; k < key_space; ++k) {
      found += semstm::atomically(
          [&](semstm::Tx& tx) { return table().contains(tx, k); });
    }
    const std::size_t size = table().unsafe_size();
    if (found == size) return {};
    return "hashtable: " + std::to_string(found) + " keys found but " +
           std::to_string(size) + " cells occupied";
  }

  semstm::tmir::BarrierCounts barriers() const { return {}; }

  /// The table behind the workload. contains()/insert() are non-const
  /// templates even where they only read, hence the cast; the benchmark
  /// uses it only single-threaded, after a run (and the tests to corrupt
  /// it).
  semstm::TOpenHashTable& table() {
    return const_cast<semstm::TOpenHashTable&>(wl_.table());
  }

 private:
  semstm::HashtableWorkload wl_;
};

/// Fig. 1c with hot-account skew: 1-10 overdraft-checked transfers per
/// transaction over tiny read-sets. Commit path, write-set, aborts,
/// backoff and semantic inc do most of the work.
class BankBench {
 public:
  static constexpr const char* kName = "bank-hot";
  static constexpr std::uint64_t kSimOpsPerThread = 8000;
  static constexpr std::size_t kAccounts = 1024;
  static constexpr std::size_t kHotAccounts = 64;
  static constexpr unsigned kHotPct = 50;
  struct Shared {};
  static Shared compile() { return {}; }

  BankBench(bool semantic, const Shared&, unsigned)
      : wl_(semstm::BankWorkload::Params{.accounts = kAccounts,
                                         .hot_accounts = kHotAccounts,
                                         .hot_pct = kHotPct},
            semantic) {}

  void setup(Rng&) {}

  template <typename TxT>
  void op(unsigned tid, Rng& rng) {
    wl_.template op_t<TxT>(tid, rng);
  }

  /// Money conservation and no overdraft (BankWorkload::verify).
  std::string check() {
    try {
      wl_.verify();
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return {};
  }

  semstm::tmir::BarrierCounts barriers() const { return {}; }

  semstm::BankWorkload& workload() { return wl_; }

 private:
  semstm::BankWorkload wl_;
};

/// Fig. 2's GCC path: the tmir center_update kernel compiled once through
/// the full pipeline and interpreted in GCC mode against a few shared
/// centre records, under whichever algorithm is bound (GCC compiles once,
/// libitm picks the algorithm at run time). The interpreter and the passes
/// do most of the work; the other workloads never touch them.
class KmeansBench {
 public:
  static constexpr const char* kName = "gcc-kmeans";
  static constexpr std::uint64_t kSimOpsPerThread = 4000;
  static constexpr unsigned kFeatures = 8;
  static constexpr unsigned kCenters = 8;
  static constexpr unsigned kRecordWords = 1 + kFeatures;  // [len, c0..c7]
  static constexpr unsigned kMaxLocals = 8;
  static constexpr semstm::word_t kMaxFeature = 100;

  /// The compiled kernel. compile() runs tm_rbe -> tm_mark -> tm_optimize
  /// with pass_verify after each pass and pass_tm_lint at the end, and
  /// throws on any diagnostic.
  struct Shared {
    semstm::tmir::Function kernel;
  };

  static Shared compile() {
    namespace tmir = semstm::tmir;
    Shared s{tmir::build_center_update_kernel(kFeatures)};
    auto verified = [&](const char* when) {
      const auto diags = tmir::pass_verify(s.kernel);
      if (!diags.empty()) {
        throw std::runtime_error(std::string("gcc-kmeans: ") + when + ": " +
                                 tmir::format_diagnostic(s.kernel, diags[0]));
      }
    };
    tmir::pass_tm_rbe(s.kernel);
    verified("after tm_rbe");
    tmir::pass_tm_mark(s.kernel);
    verified("after tm_mark");
    tmir::pass_tm_optimize(s.kernel);
    verified("after tm_optimize");
    const auto lint = tmir::pass_tm_lint(s.kernel);
    if (!lint.empty()) {
      throw std::runtime_error("gcc-kmeans: lint: " +
                               tmir::format_diagnostic(s.kernel, lint[0]));
    }
    if (s.kernel.num_locals > kMaxLocals) {
      throw std::runtime_error("gcc-kmeans: kernel needs more local slots "
                               "than the shadow provides");
    }
    return s;
  }

  KmeansBench(bool, const Shared& shared, unsigned threads)
      : kernel_(shared.kernel),
        records_(kCenters * kRecordWords, 0),
        threads_(threads) {}

  void setup(Rng&) {}

  template <typename TxT>
  void op(unsigned tid, Rng& rng) {
    namespace tmir = semstm::tmir;
    const auto c = static_cast<unsigned>(rng.below(kCenters));
    std::array<semstm::word_t, 1 + kFeatures> args{};
    args[0] = semstm::to_word(records_[c * kRecordWords].word());
    for (unsigned j = 0; j < kFeatures; ++j) args[1 + j] = rng.below(kMaxFeature);

    PerThread& me = threads_[tid];
    semstm::tword shadow[kMaxLocals];
    const tmir::InterpOptions opts{.instrument_locals = true,
                                   .barriers = &me.barriers,
                                   .local_shadow = shadow};
    semstm::atomically<TxT>([&](TxT& tx) {
      if constexpr (std::is_same_v<TxT, semstm::Tx>) {
        if (Timeline* tl = tls_timeline()) {
          InterpSpan span(*tl);
          return tmir::execute<TxT>(tx, kernel_, args.data(), args.size(),
                                    opts);
        }
      }
      return tmir::execute<TxT>(tx, kernel_, args.data(), args.size(), opts);
    });
    // Committed: account the point to its centre.
    me.sums[c * kRecordWords] += 1;
    for (unsigned j = 0; j < kFeatures; ++j) {
      me.sums[c * kRecordWords + 1 + j] += static_cast<std::int64_t>(args[1 + j]);
    }
  }

  /// Each centre's length and feature sums equal the totals of the points
  /// whose transactions committed.
  std::string check() {
    for (unsigned w = 0; w < kCenters * kRecordWords; ++w) {
      std::int64_t expected = 0;
      for (const PerThread& t : threads_) expected += t.sums[w];
      const std::int64_t got = records_[w].unsafe_get();
      if (got != expected) {
        return "gcc-kmeans: centre " + std::to_string(w / kRecordWords) +
               " word " + std::to_string(w % kRecordWords) + " holds " +
               std::to_string(got) + ", committed points sum to " +
               std::to_string(expected);
      }
    }
    return {};
  }

  /// Executed barriers over all threads (aborted attempts included).
  semstm::tmir::BarrierCounts barriers() const {
    semstm::tmir::BarrierCounts b;
    for (const PerThread& t : threads_) add_barriers(b, t.barriers);
    return b;
  }

  semstm::TArray<std::int64_t>& records() { return records_; }

 private:
  struct alignas(64) PerThread {
    std::array<std::int64_t, kCenters * kRecordWords> sums{};
    semstm::tmir::BarrierCounts barriers;
  };

  const semstm::tmir::Function& kernel_;
  semstm::TArray<std::int64_t> records_;
  std::vector<PerThread> threads_;
};

}  // namespace perfbench

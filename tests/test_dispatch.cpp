// Two-tier dispatch parity (DESIGN.md §4.12).
//
// The monomorphic tier (atomically<Core>, op_t<Core>) and the type-erased
// tier (atomically<Tx>, op_t<Tx>) are two instantiations of the same
// statements over the same descriptor. If the refactor is faithful, a
// deterministic sim-mode run must produce BIT-IDENTICAL statistics under
// both tiers — commits, aborts, per-cause abort attribution, and every
// read/compare/increment/read-set-economy counter — for all five
// algorithms. Any divergence means the tiers execute different logic.
// The driver runs the static tier (MonoWorkload::run_ops); the virtual
// tier runs through a test-local Workload whose default run_ops calls
// op() once per operation.
//
// The shared state is owned by the fixture and reset (not reallocated)
// between runs: TL2-family read-set counters depend on address-hashed orec
// indices, so the comparison is only meaningful when both runs see the
// same addresses.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "containers/tarray.hpp"
#include "core/atomically.hpp"
#include "core/dispatch.hpp"
#include "workloads/mono.hpp"

namespace semstm {
namespace {

constexpr std::size_t kCells = 64;
constexpr std::int64_t kInitial = 100;

/// Exercises every primitive of the extended API — read, write, cmp,
/// cmp2, cmp_or, inc (with RAW promotion via the re-read after add) —
/// against caller-owned cells, so both dispatch tiers run over identical
/// addresses.
class ParityWorkload final : public MonoWorkload<ParityWorkload> {
 public:
  explicit ParityWorkload(TArray<std::int64_t>& cells) : cells_(cells) {}

  template <typename TxT>
  void op_t(unsigned, Rng& rng) {
    const auto a = static_cast<std::size_t>(rng.below(kCells));
    const auto b = static_cast<std::size_t>(rng.below(kCells));
    const auto kind = static_cast<unsigned>(rng.below(5));
    atomically<TxT>([&](TxT& tx) {
      switch (kind) {
        case 0:  // guarded transfer: cmp + inc/dec
          if (cells_[a].gte(tx, 1)) {
            cells_[a].sub(tx, 1);
            cells_[b].add(tx, 1);
          }
          break;
        case 1:  // address–address compare steering a write
          if (cells_[a].lt(tx, cells_[b])) {
            cells_[a].set(tx, cells_[a].get(tx) + 1);
          }
          break;
        case 2: {  // composed conditional (one cmp_or clause)
          const CmpTerm pass[2] = {
              term<std::int64_t>(cells_[a], Rel::SGT, kInitial),
              term<std::int64_t>(cells_[b], Rel::SLT, kInitial),
          };
          if (tx.cmp_or(pass, 2)) cells_[a].set(tx, kInitial);
          break;
        }
        case 3:  // increment then re-read: the RAW promotion path
          cells_[a].add(tx, 2);
          if (cells_[a].get(tx) > 2 * kInitial) cells_[a].sub(tx, 2);
          break;
        default:  // plain read/write traffic
          cells_[b].set(tx, cells_[a].get(tx));
          break;
      }
    });
  }

 private:
  TArray<std::int64_t>& cells_;
};

/// The type-erased tier: ParityWorkload::op_t<Tx> through Workload's
/// default run_ops loop, one op() call per operation.
class VirtualParityWorkload final : public Workload {
 public:
  explicit VirtualParityWorkload(ParityWorkload& inner) : inner_(inner) {}
  void op(unsigned tid, Rng& rng) override {
    inner_.op_t<Tx>(tid, rng);
  }

 private:
  ParityWorkload& inner_;
};

class DispatchParity : public ::testing::TestWithParam<const char*> {
 protected:
  RunResult run(Workload& wl) {
    for (std::size_t i = 0; i < kCells; ++i) {
      cells_[i].unsafe_set(kInitial);
    }
    RunConfig cfg;
    cfg.algo = GetParam();
    cfg.threads = 3;
    cfg.mode = ExecMode::kSim;
    cfg.ops_per_thread = 400;
    cfg.seed = 0xD15BA7C4;
    cfg.cm = "backoff";
    return run_workload(cfg, wl);
  }

  TArray<std::int64_t> cells_{kCells, kInitial};
  /// The static tier: MonoWorkload::run_ops over op_t<Core>.
  ParityWorkload static_wl_{cells_};
};

TEST_P(DispatchParity, StaticAndVirtualTiersAreBitIdentical) {
  VirtualParityWorkload virtual_wl(static_wl_);
  const RunResult v = run(virtual_wl);
  const RunResult s = run(static_wl_);

  EXPECT_GT(v.stats.commits, 0u);
  EXPECT_EQ(v.stats.starts, s.stats.starts);
  EXPECT_EQ(v.stats.commits, s.stats.commits);
  EXPECT_EQ(v.stats.aborts, s.stats.aborts);
  EXPECT_EQ(v.stats.exceptions, s.stats.exceptions);
  EXPECT_EQ(v.stats.retries, s.stats.retries);
  EXPECT_EQ(v.stats.fallbacks, s.stats.fallbacks);
  EXPECT_EQ(v.stats.max_consec_aborts, s.stats.max_consec_aborts);
  EXPECT_EQ(v.stats.reads, s.stats.reads);
  EXPECT_EQ(v.stats.writes, s.stats.writes);
  EXPECT_EQ(v.stats.compares, s.stats.compares);
  EXPECT_EQ(v.stats.compares2, s.stats.compares2);
  EXPECT_EQ(v.stats.increments, s.stats.increments);
  EXPECT_EQ(v.stats.promotions, s.stats.promotions);
  EXPECT_EQ(v.stats.validations, s.stats.validations);
  EXPECT_EQ(v.stats.readset_adds, s.stats.readset_adds);
  EXPECT_EQ(v.stats.readset_dups, s.stats.readset_dups);
  EXPECT_EQ(v.stats.validate_entries, s.stats.validate_entries);
  EXPECT_EQ(v.stats.clock_adoptions, s.stats.clock_adoptions);
  EXPECT_EQ(v.stats.epoch_retires, s.stats.epoch_retires);
  EXPECT_EQ(v.stats.epoch_reclaims, s.stats.epoch_reclaims);
  for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
    EXPECT_EQ(v.stats.abort_causes[c], s.stats.abort_causes[c])
        << "abort cause index " << c;
  }
  EXPECT_EQ(v.makespan, s.makespan);
}

TEST_P(DispatchParity, SimRunsAreBitIdenticalAcrossRepeats) {
  // Replay determinism of the scalable commit infrastructure (§4.16): the
  // GV4 clock, the announce-slot gate, and the SpinWait escalation must
  // leave the 1-carrier sim's yield-point sequence untouched, so the same
  // config over the same addresses reproduces every counter and the
  // makespan exactly. (Cross-binary TL2 counts may legitimately differ —
  // orec hashing is address-dependent — which is precisely why this
  // comparison runs within one process over fixture-owned cells.)
  const RunResult a = run(static_wl_);
  const RunResult b = run(static_wl_);
  EXPECT_GT(a.stats.commits, 0u);
  EXPECT_EQ(a.stats.starts, b.stats.starts);
  EXPECT_EQ(a.stats.commits, b.stats.commits);
  EXPECT_EQ(a.stats.aborts, b.stats.aborts);
  EXPECT_EQ(a.stats.validations, b.stats.validations);
  EXPECT_EQ(a.stats.readset_adds, b.stats.readset_adds);
  EXPECT_EQ(a.stats.readset_dups, b.stats.readset_dups);
  EXPECT_EQ(a.stats.validate_entries, b.stats.validate_entries);
  for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
    EXPECT_EQ(a.stats.abort_causes[c], b.stats.abort_causes[c])
        << "abort cause index " << c;
  }
  EXPECT_EQ(a.makespan, b.makespan);

  // In the 1-carrier sim the GV4 clock CAS can never lose (no yield point
  // between its load and CAS), so TL2-family commits must never adopt —
  // the exact property that keeps sim results identical to the historical
  // fetch_add clock.
  EXPECT_EQ(a.stats.clock_adoptions, 0u);
  EXPECT_EQ(b.stats.clock_adoptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DispatchParity,
                         ::testing::Values("cgl", "norec", "snorec", "tl2",
                                           "stl2"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// -- dispatch_algorithm plumbing ---------------------------------------------

TEST(DispatchAlgorithm, TagMatchesAlgoIdForEveryName) {
  for (const std::string& name : algorithm_names()) {
    const AlgoId expected = algo_id(name);
    const AlgoId got = dispatch_algorithm(
        name, [](auto tag) { return decltype(tag)::id; });
    EXPECT_EQ(got, expected) << name;
  }
}

TEST(DispatchAlgorithm, TagCoreNameMatchesAlgorithmName) {
  for (const std::string& name : algorithm_names()) {
    const char* core_name = dispatch_algorithm(
        name, [](auto tag) { return decltype(tag)::tx_type::kName; });
    EXPECT_STREQ(core_name, name.c_str());
  }
}

TEST(DispatchAlgorithm, UnknownNameThrows) {
  EXPECT_THROW((void)algo_id("tinystm"), std::invalid_argument);
  EXPECT_THROW((void)make_algorithm("tinystm"), std::invalid_argument);
}

// -- make_algorithm option validation ----------------------------------------

TEST(MakeAlgorithmOptions, RejectsOrecLog2OutOfRangeNamingTheValue) {
  AlgoOptions opts;
  opts.orec_log2 = 0;
  try {
    (void)make_algorithm("tl2", opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("orec_log2 = 0"), std::string::npos)
        << e.what();
  }
  opts.orec_log2 = 40;
  try {
    (void)make_algorithm("norec", opts);  // validated for every algorithm
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("orec_log2 = 40"), std::string::npos)
        << e.what();
  }
}

TEST(MakeAlgorithmOptions, AcceptsBoundaryValues) {
  AlgoOptions opts;
  opts.orec_log2 = AlgoOptions::kOrecLog2Min;
  EXPECT_NE(make_algorithm("tl2", opts), nullptr);
  opts.orec_log2 = 20;  // large but sane; max would allocate gigabytes
  EXPECT_NE(make_algorithm("stl2", opts), nullptr);
}

// -- loud missing-context failure (release builds included) ------------------

TEST(CurrentTxDeath, FailsLoudlyWithNoBoundContext) {
  EXPECT_DEATH((void)current_tx(), "no transaction context bound");
}

TEST(CurrentTxDeath, AtomicallyFailsLoudlyWithNoBoundContext) {
  EXPECT_DEATH(atomically([](Tx&) {}), "no transaction context bound");
}

}  // namespace
}  // namespace semstm

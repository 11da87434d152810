// The benchmark's own tests: simulator determinism, the output checks
// firing on corrupted state, the traced run's time partition and the p99
// histogram's resolution. test.py runs this binary and then checks every
// metric name and unit against BENCHMARK.json.
#include <gtest/gtest.h>

#include <cstring>

#include "runner.hpp"

namespace perfbench {
namespace {

template <typename W>
void expect_sim_bit_identical(const char* algo) {
  const typename W::Shared shared = W::compile();
  const SimOut a = run_sim<W>(algo, shared, 4, 7, 300);
  const SimOut b = run_sim<W>(algo, shared, 4, 7, 300);
  EXPECT_EQ(a.check_error, "");
  EXPECT_GT(a.stats.commits, 0u);
  // Bit-identical, not merely close.
  EXPECT_EQ(0, std::memcmp(&a.commits_per_mtick, &b.commits_per_mtick,
                           sizeof(double)))
      << W::kName << "/" << algo << ": " << a.commits_per_mtick << " vs "
      << b.commits_per_mtick;
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stats.aborts, b.stats.aborts);
  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.barriers.total(), b.barriers.total());
}

TEST(SimDeterminism, NorecFamilyRepeatsBitIdenticallyInOneProcess) {
  for (const char* algo : {"norec", "snorec"}) {
    expect_sim_bit_identical<HashtableBench>(algo);
    expect_sim_bit_identical<BankBench>(algo);
    expect_sim_bit_identical<KmeansBench>(algo);
  }
}

/// Runs `ops` operations of `w` on one thread under `algo`.
template <typename W>
void drive(W& w, const char* algo, int ops) {
  auto a = semstm::make_algorithm(algo);
  semstm::ThreadCtx ctx(a->make_tx(), 1);
  semstm::CtxBinder bind(ctx);
  Rng rng(3);
  for (int i = 0; i < ops; ++i) w.template op<semstm::Tx>(0, rng);
}

TEST(Checks, HashtableCountsAForeignKey) {
  HashtableBench w(true, {}, 1);
  Rng rng(1);
  w.setup(rng);
  drive(w, "snorec", 200);
  EXPECT_EQ(w.check(), "");
  // A key outside the workload's key space: occupies a cell that no
  // contains() over the key space finds.
  auto cgl = semstm::make_algorithm("cgl");
  semstm::ThreadCtx ctx(cgl->make_tx(), 1);
  semstm::CtxBinder bind(ctx);
  const std::int64_t foreign =
      static_cast<std::int64_t>(semstm::HashtableWorkload::Params{}.key_space) +
      5;
  ASSERT_TRUE(semstm::atomically(
      [&](semstm::Tx& tx) { return w.table().insert(tx, foreign); }));
  EXPECT_NE(w.check(), "");
}

TEST(Checks, BankDetectsLostMoneyAndOverdraft) {
  for (long corrupt : {999L, -1L}) {
    BankBench w(true, {}, 1);
    drive(w, "stl2", 200);
    EXPECT_EQ(w.check(), "");
    auto* cell = const_cast<semstm::tword*>(w.workload().account_word(3));
    cell->store(semstm::to_word(corrupt));
    EXPECT_NE(w.check(), "") << corrupt;
  }
}

TEST(Checks, KmeansDetectsACentreOffItsCommittedTotals) {
  const KmeansBench::Shared shared = KmeansBench::compile();
  KmeansBench w(false, shared, 1);
  drive(w, "tl2", 200);
  EXPECT_EQ(w.check(), "");
  auto& cell = w.records()[KmeansBench::kRecordWords + 2];
  cell.unsafe_set(cell.unsafe_get() + 1);
  EXPECT_NE(w.check(), "");
}

TEST(Trace, LayersPartitionEveryOperationExactly) {
  const RealOut o =
      run_real<BankBench>("tl2", {}, {-1, -1}, 9, Plan{0.02, 0.03}, true);
  const LayerTotals& L = o.layers;
  ASSERT_GT(L.ops, 0u);
  std::uint64_t sum = 0;
  for (unsigned l = 0; l < kLayerCount; ++l) sum += L.ns[l];
  EXPECT_EQ(sum, L.op_ns);  // gross: exact, every read closes one interval
  EXPECT_GE(L.n[kBegin], L.ops);
  EXPECT_GE(L.n[kCommit], L.ops);
  // Net of the calibrated read cost the partition still sums to the
  // operation time; the one estimate is the per-read cost itself.
  const double read_ns = calibrate_clock_read_ns();
  EXPECT_GT(read_ns, 0.0);
  EXPECT_GT(L.op_self_ns(read_ns), 0.0);
  EXPECT_EQ(o.check_error, "");
}

TEST(Trace, InterpreterTimeIsSeparatedFromBody) {
  const KmeansBench::Shared shared = KmeansBench::compile();
  const RealOut o =
      run_real<KmeansBench>("norec", shared, {-1, -1}, 9,
                            Plan{0.02, 0.03}, true);
  EXPECT_GT(o.layers.n[kInterp], 0u);
  EXPECT_GT(o.layers.n[kSem], 0u);  // the marked kernel issues incs
  EXPECT_EQ(o.check_error, "");
}

TEST(LatencyHist, P99ResolvesToAboutOnePercent) {
  LatencyHist h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(1000 + v);
  const double p99 = h.quantile(0.99);
  EXPECT_NEAR(p99, 1000.0 + 99000.0, 0.01 * 100000.0);
  EXPECT_EQ(h.count(), 100000u);
}

}  // namespace
}  // namespace perfbench

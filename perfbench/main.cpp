// perfbench: the repository's end-to-end benchmark (README.md beside this
// file). Usually started through run.py, which builds it first:
//
//   perfbench --workload hashtable|bank-hot|gcc-kmeans --seed N
//             --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (a separate traced run next to an untraced one). Human-readable lines
// start with '#'; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 when an
// output check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness.hpp"
#include "runner.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr std::array<const char*, 4> kAlgos = {"norec", "snorec", "tl2",
                                               "stl2"};
/// Rounds per run. Each round builds every algorithm and workload instance
/// afresh, runs each algorithm's real-thread slot and then one simulator
/// sweep over the four algorithms. Short interleaved slots spread every
/// metric's samples over the whole run, so a slow spell of the host is
/// shared by all algorithms instead of landing on one; fresh set-ups
/// sample layout- or state-dependent regimes instead of fixing one per
/// process.
constexpr unsigned kRounds = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// One algorithm's results over all rounds of a run.
struct AlgoAgg {
  std::vector<double> seg_cps, seg_p99_ns, traced_seg_cps, sim_cpm;
  std::vector<double> round_commit_ratio, setup_s;
  std::uint64_t lat_samples = 0;
  semstm::TxStats real;  ///< untraced real-thread runs
  LayerTotals layers;    ///< traced runs
  semstm::TxStats sim;   ///< simulator sweeps (exact counts)
  semstm::tmir::BarrierCounts sim_barriers;
  double sim_wall_s = 0.0;
};

/// Operations attempted and failed: a failed operation is a transaction
/// abandoned by an exception, or any operation of a run whose output
/// check failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void absorb(const semstm::TxStats& s, const std::string& check_error) {
    attempted += s.commits + s.exceptions;
    failed += s.exceptions;
    if (!check_error.empty()) {
      failed += s.commits;
      errors.push_back(check_error);
    }
  }
};

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Set-up time: the per-round medians of each algorithm's set-up and of
/// the pass pipeline, summed.
double setup_seconds(const std::array<AlgoAgg, 4>& agg,
                     const std::vector<double>& pass_us) {
  double s = median(pass_us) * 1e-6;
  for (const AlgoAgg& g : agg) s += median(g.setup_s);
  return s;
}

std::vector<Metric> end_to_end(const std::array<AlgoAgg, 4>& agg,
                               const std::vector<double>& pass_us,
                               const std::vector<double>& sim_walls) {
  std::vector<Metric> m;
  for (std::size_t k = 0; k < kAlgos.size(); ++k) {
    m.push_back({std::string("commits_per_s.") + kAlgos[k],
                 median(agg[k].seg_cps), "1/s"});
  }
  for (std::size_t k = 0; k < kAlgos.size(); ++k) {
    m.push_back({std::string("tx_p99_us.") + kAlgos[k],
                 median(agg[k].seg_p99_ns) / 1e3, "us"});
  }
  for (std::size_t k = 0; k < kAlgos.size(); ++k) {
    m.push_back({std::string("sim_commits_per_mtick.") + kAlgos[k],
                 median(agg[k].sim_cpm), "1/Mtick"});
  }
  m.push_back({"sim_wall_s", median(sim_walls), "s"});
  m.push_back({"setup_s", setup_seconds(agg, pass_us), "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  return m;
}

/// Per-layer metrics. Counts of work per commit come from the simulator
/// (they repeat exactly there); counts of contention (commit ratio, aborts
/// by cause, fallbacks, clock adoptions) from the untraced real-thread
/// runs; times and shares from the traced runs.
std::vector<Metric> per_layer(const std::array<AlgoAgg, 4>& agg,
                              double read_ns, double pass_us) {
  using semstm::obs::AbortCause;
  std::vector<Metric> m;
  for (std::size_t k = 0; k < kAlgos.size(); ++k) {
    const AlgoAgg& g = agg[k];
    const std::string a = kAlgos[k];
    const LayerTotals& L = g.layers;
    const double op_ns = L.op_self_ns(read_ns);
    auto per_call = [&](Layer l) { return ratio(L.self_ns(l, read_ns),
                                                static_cast<double>(L.n[l])); };
    auto pct = [&](double ns) { return 100.0 * ratio(ns, op_ns); };
    m.push_back({"algos.begin_ns." + a, per_call(kBegin), "ns"});
    m.push_back({"algos.read_ns." + a, per_call(kRead), "ns"});
    m.push_back({"algos.write_ns." + a, per_call(kWrite), "ns"});
    m.push_back({"algos.sem_ns." + a, per_call(kSem), "ns"});
    m.push_back({"algos.commit_ns." + a, per_call(kCommit), "ns"});
    m.push_back({"algos.rollback_ns." + a, per_call(kRollback), "ns"});
    m.push_back({"workloads.body_pct." + a, pct(L.self_ns(kBody, read_ns)), "%"});
    m.push_back({"tmir.interp_self_pct." + a, pct(L.self_ns(kInterp, read_ns)),
                 "%"});
    m.push_back({"runtime.backoff_pct." + a, pct(L.self_ns(kBackoff, read_ns)),
                 "%"});
    m.push_back({"core.waste_pct." + a, pct(L.waste_self_ns(read_ns)), "%"});
    m.push_back({"trace.overhead_pct." + a,
                 100.0 * (1.0 - ratio(median(g.traced_seg_cps),
                                      median(g.seg_cps))),
                 "%"});

    const semstm::TxStats& R = g.real;
    m.push_back({"algos.commit_ratio." + a, ratio(R.commits, R.starts),
                 "ratio"});
    for (AbortCause c :
         {AbortCause::kReadValidation, AbortCause::kWriteLockConflict,
          AbortCause::kCmpRevalidation, AbortCause::kSerialGatePreempt}) {
      m.push_back({std::string("algos.aborts_per_kcommit.") +
                       semstm::obs::abort_cause_name(c) + "." + a,
                   1e3 * ratio(R.abort_cause(c), R.commits), "count"});
    }
    m.push_back({"runtime.fallbacks_per_10k." + a,
                 1e4 * ratio(R.fallbacks, R.commits), "count"});
    m.push_back({"runtime.clock_adoptions_per_kcommit." + a,
                 1e3 * ratio(R.clock_adoptions, R.commits), "count"});

    const semstm::TxStats& S = g.sim;
    const semstm::tmir::BarrierCounts& B = g.sim_barriers;
    m.push_back({"algos.reads_per_commit." + a, ratio(S.reads, S.commits),
                 "count"});
    m.push_back({"algos.sem_ops_per_commit." + a,
                 ratio(S.compares + S.compares2 + S.increments, S.commits),
                 "count"});
    m.push_back({"runtime.validate_entries_per_commit." + a,
                 ratio(S.validate_entries, S.commits), "count"});
    m.push_back({"runtime.readset_dup_pct." + a,
                 100.0 * ratio(S.readset_dups, S.readset_adds + S.readset_dups),
                 "%"});
    m.push_back({"tmir.barriers_per_op.loads." + a, ratio(B.tm_loads, S.commits),
                 "count"});
    m.push_back({"tmir.barriers_per_op.stores." + a,
                 ratio(B.tm_stores, S.commits), "count"});
    m.push_back({"tmir.barriers_per_op.cmps." + a, ratio(B.tm_cmps, S.commits),
                 "count"});
    m.push_back({"tmir.barriers_per_op.incs." + a, ratio(B.tm_incs, S.commits),
                 "count"});
    m.push_back({"tmir.barriers_per_op.locals." + a,
                 ratio(B.local_loads + B.local_stores, S.commits), "count"});
    m.push_back({"sched.sim_wall_ns_per_commit." + a,
                 1e9 * ratio(g.sim_wall_s, static_cast<double>(S.commits)),
                 "ns"});
    m.push_back({"sched.sim_abort_pct." + a, S.abort_pct(), "%"});
  }
  m.push_back({"tmir.pass_us", pass_us, "us"});
  return m;
}

void print_json_number(double v) {
  // Full precision; JSON has no NaN/Inf, so those print as 0.
  std::printf("%.17g", std::isfinite(v) ? v : 0.0);
}

template <typename W>
int bench(const Args& args) {
  const std::vector<int> cpus = worker_cpus();
  const auto threads = static_cast<unsigned>(cpus.size());
  const double read_ns = args.trace ? calibrate_clock_read_ns() : 0.0;
  std::array<AlgoAgg, 4> agg;
  Outcome outcome;
  std::vector<double> pass_us, sim_walls;

  // The real phase takes --seconds: kRounds rounds of every algorithm,
  // each slot untraced (and, with --trace 1, traced as well). Every round
  // then sweeps the simulator with its own input seed.
  const double slot =
      args.seconds / (kRounds * kAlgos.size() * (args.trace ? 2.0 : 1.0));
  const Plan plan = Plan::for_slot(slot);
  semstm::SplitMix64 seeds(args.seed);
  for (unsigned r = 0; r < kRounds; ++r) {
    const std::uint64_t round_seed = seeds.next();
    const std::uint64_t t0 = now_ns();
    const typename W::Shared shared = W::compile();
    const double pass_s = static_cast<double>(now_ns() - t0) * 1e-9;
    pass_us.push_back(pass_s * 1e6);
    for (std::size_t i = 0; i < kAlgos.size(); ++i) {
      const std::size_t k = (i + r) % kAlgos.size();  // rotate the order
      AlgoAgg& g = agg[k];
      const RealOut o =
          run_real<W>(kAlgos[k], shared, cpus, round_seed, plan, false);
      g.setup_s.push_back(o.setup_s);
      append(g.seg_cps, o.seg_cps);
      append(g.seg_p99_ns, o.seg_p99_ns);
      g.lat_samples += o.lat_samples;
      g.real += o.stats;
      g.round_commit_ratio.push_back(ratio(o.stats.commits, o.stats.starts));
      outcome.absorb(o.stats, o.check_error);
      if (args.trace) {
        const RealOut t =
            run_real<W>(kAlgos[k], shared, cpus, round_seed, plan, true);
        append(g.traced_seg_cps, t.seg_cps);
        g.layers += t.layers;
        outcome.absorb(t.stats, t.check_error);
      }
    }

    const std::uint64_t sim_seed = seeds.next();
    double wall = 0.0;
    for (std::size_t k = 0; k < kAlgos.size(); ++k) {
      const SimOut s = run_sim<W>(kAlgos[k], shared, threads, sim_seed,
                                  W::kSimOpsPerThread);
      wall += s.wall_s;
      AlgoAgg& g = agg[k];
      g.sim_cpm.push_back(s.commits_per_mtick);
      g.sim += s.stats;
      add_barriers(g.sim_barriers, s.barriers);
      g.sim_wall_s += s.wall_s;
      outcome.absorb(s.stats, s.check_error);
    }
    sim_walls.push_back(wall);
  }

  const std::vector<Metric> metrics =
      args.trace ? per_layer(agg, read_ns, median(pass_us))
                 : end_to_end(agg, pass_us, sim_walls);

  // Human-readable report and the steadiness record's extras.
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%u build=%s rounds=%u\n",
              W::kName, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, threads, PERFBENCH_BUILD_TYPE,
              kRounds);
  std::printf("# %-7s %12s %12s %12s %6s %10s %9s %14s %7s\n", "algo",
              "commits/s", "q1", "q3", "segs", "p99_us", "samples",
              "sim_c/Mtick", "c_ratio");
  for (std::size_t k = 0; k < kAlgos.size(); ++k) {
    const AlgoAgg& g = agg[k];
    std::printf("# %-7s %12.0f %12.0f %12.0f %6zu %10.3f %9llu %14.3f %7.4f\n",
                kAlgos[k], median(g.seg_cps), quantile(g.seg_cps, 0.25),
                quantile(g.seg_cps, 0.75), g.seg_cps.size(),
                median(g.seg_p99_ns) / 1e3,
                static_cast<unsigned long long>(g.lat_samples),
                median(g.sim_cpm), ratio(g.real.commits, g.real.starts));
  }
  std::printf("# info {\"threads\": %u, \"build\": \"%s\", \"clock_read_ns\": ",
              threads, PERFBENCH_BUILD_TYPE);
  print_json_number(read_ns);
  std::printf(", \"algos\": {");
  for (std::size_t k = 0; k < kAlgos.size(); ++k) {
    const AlgoAgg& g = agg[k];
    std::printf("%s\"%s\": {\"segments\": %zu, \"p99_samples\": %llu, "
                "\"commit_ratio_per_round\": [",
                k == 0 ? "" : ", ", kAlgos[k], g.seg_cps.size(),
                static_cast<unsigned long long>(g.lat_samples));
    for (std::size_t i = 0; i < g.round_commit_ratio.size(); ++i) {
      if (i > 0) std::printf(", ");
      print_json_number(g.round_commit_ratio[i]);
    }
    std::printf("], \"seg_cps\": [");
    for (std::size_t i = 0; i < g.seg_cps.size(); ++i) {
      if (i > 0) std::printf(", ");
      std::printf("%.0f", g.seg_cps[i]);
    }
    std::printf("], \"commit_ratio\": ");
    print_json_number(ratio(g.real.commits, g.real.starts));
    std::printf("}");
  }
  std::printf("}}\n");

  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  const bool correct = outcome.errors.empty() && outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics[i].name.c_str());
    print_json_number(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hashtable|bank-hot|gcc-kmeans --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  try {
    if (args.workload == HashtableBench::kName) return bench<HashtableBench>(args);
    if (args.workload == BankBench::kName) return bench<BankBench>(args);
    if (args.workload == KmeansBench::kName) return bench<KmeansBench>(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  usage(("unknown workload '" + args.workload + "'").c_str());
}

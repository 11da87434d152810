#include "sched/litmus.hpp"

#include <stdexcept>

#include "sched/virtual_scheduler.hpp"

namespace semstm::sched {

namespace {

/// Debug-tier defaults: large enough to exhaust every 2-thread single-op
/// test against every core (the TL2 family's instrumented commit plus the
/// serial-gate enter/exit windows put WriteRead near 2e5 schedules), small
/// enough that each such exploration stays under ~10 seconds. Deeper runs
/// and tests that cannot exhaust pass an explicit ExploreOptions instead.
constexpr std::uint64_t kDefaultMaxSchedules = 400000;
constexpr std::uint64_t kDefaultMaxSteps = 2000;

/// One DFS node: at a branching decision the controller saw `fanout`
/// choices and took index `chosen` (tid recorded for witness schedules).
struct Decision {
  unsigned fanout = 0;
  unsigned chosen = 0;
  unsigned tid = 0;
};

/// The DFS controller for one schedule: follow `prefix` at branching
/// decisions, then always take choice 0; record the branching trace.
/// Forced decisions (one runnable fiber) are executed but not recorded —
/// they can never branch, and keeping them out of the trace keeps prefixes
/// short. Truncates via kStopAll after `max_steps` total decisions.
class DfsController final : public ScheduleController {
 public:
  DfsController(const std::vector<unsigned>& prefix, std::uint64_t max_steps)
      : prefix_(prefix), max_steps_(max_steps) {}

  unsigned pick(const std::vector<RunnableFiber>& runnable) override {
    if (++steps_ > max_steps_) return kStopAll;
    if (runnable.size() == 1) return runnable.front().tid;
    unsigned choice = 0;
    if (trace_.size() < prefix_.size()) {
      choice = prefix_[trace_.size()];
      if (choice >= runnable.size()) {
        // A prefix recorded against this very test diverged: the test is
        // nondeterministic (RNG, address-dependent hashing across resets),
        // which would silently corrupt the enumeration. Fail loudly.
        throw std::logic_error(
            "litmus: schedule replay diverged (nondeterministic test?)");
      }
    }
    trace_.push_back({static_cast<unsigned>(runnable.size()), choice,
                      runnable[choice].tid});
    return runnable[choice].tid;
  }

  const std::vector<Decision>& trace() const noexcept { return trace_; }

 private:
  const std::vector<unsigned>& prefix_;
  std::uint64_t max_steps_;
  std::uint64_t steps_ = 0;
  std::vector<Decision> trace_;
};

}  // namespace

std::vector<std::string> ExploreResult::outcome_set() const {
  std::vector<std::string> set;
  set.reserve(outcomes.size());
  for (const auto& [k, v] : outcomes) set.push_back(k);
  return set;
}

ExploreResult explore(LitmusTest& test, const ExploreOptions& opts) {
  const std::uint64_t max_schedules =
      opts.max_schedules != 0 ? opts.max_schedules : kDefaultMaxSchedules;
  const std::uint64_t max_steps =
      opts.max_steps != 0 ? opts.max_steps : kDefaultMaxSteps;

  ExploreResult result;
  std::vector<unsigned> prefix;  // branching-choice indices to replay
  // One scheduler for the whole exploration: it recycles fiber stacks
  // across runs, which dominates the cost of re-running a tiny test tens
  // of thousands of times.
  VirtualScheduler sim(SimOptions{
      .seed = 1, .jitter_pct = 0, .stack_bytes = opts.stack_bytes});
  for (;;) {
    if (result.schedules + result.truncated >= max_schedules) {
      return result;  // budget exhausted: exhaustive stays false
    }
    DfsController ctl(prefix, max_steps);
    test.reset();
    const SimResult run =
        sim.run(test.threads(), [&](unsigned tid) { test.thread(tid); }, &ctl);
    const std::vector<Decision>& trace = ctl.trace();

    if (run.truncated) {
      ++result.truncated;
    } else {
      ++result.schedules;
      auto& witness = result.outcomes[test.outcome()];
      if (witness.count++ == 0) {
        witness.schedule.reserve(trace.size());
        for (const Decision& d : trace) witness.schedule.push_back(d.tid);
      }
    }

    // Backtrack: deepest decision with an untried sibling.
    std::size_t depth = trace.size();
    while (depth > 0 && trace[depth - 1].chosen + 1 >= trace[depth - 1].fanout) {
      --depth;
    }
    if (depth == 0) {
      result.exhaustive = true;
      return result;
    }
    prefix.resize(depth);
    for (std::size_t i = 0; i + 1 < depth; ++i) prefix[i] = trace[i].chosen;
    prefix[depth - 1] = trace[depth - 1].chosen + 1;
  }
}

std::string replay(LitmusTest& test, const std::vector<unsigned>& schedule,
                   std::size_t stack_bytes) {
  ScriptedController ctl(schedule);
  test.reset();
  VirtualScheduler sim(
      SimOptions{.seed = 1, .jitter_pct = 0, .stack_bytes = stack_bytes});
  const SimResult run =
      sim.run(test.threads(), [&](unsigned tid) { test.thread(tid); }, &ctl);
  if (run.truncated) {
    throw std::logic_error("litmus replay truncated (scripted runs never stop)");
  }
  return test.outcome();
}

}  // namespace semstm::sched

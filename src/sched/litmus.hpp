// Litmus-test exploration: exhaustive (or budget-bounded) DFS over the
// interleavings of a small concurrent test, at TM-operation granularity.
//
// A LitmusTest is a tiny N-thread program (2–3 threads, a handful of
// transactions) plus an outcome observation. explore() re-runs it under a
// DFS ScheduleController: each run follows a recorded prefix of choices,
// extends it first-choice-greedily to a complete schedule, and then
// backtracks to the deepest decision with an untried alternative — classic
// stateless model checking (CHESS-style), made finite by the scheduler's
// spin-parking rule. The result is the set of observed outcomes, each with
// the first schedule (choice-tid sequence) that produced it — the artifact
// a failing test commits as a ScriptedController regression schedule.
//
// Budgets: a schedule longer than max_steps decisions is truncated (its
// outcome is not recorded; its prefix is still backtracked, so bounded
// exploration remains systematic), and exploration stops after
// max_schedules runs. Both come from ExploreOptions alone (0 picks the
// built-in default), never from the environment, so a test's verdict does
// not depend on the caller's shell; a deeper run passes larger budgets.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/schedule_controller.hpp"

namespace semstm::sched {

/// A small concurrent program under schedule exploration. reset() must
/// rebuild ALL state touched by the threads — including the TM algorithm
/// instance and descriptors — because a truncated schedule may unwind
/// mid-commit and leave shared metadata (seqlock, orecs, gate) in an
/// arbitrary in-protocol state.
class LitmusTest {
 public:
  virtual ~LitmusTest() = default;
  virtual unsigned threads() const = 0;
  virtual void reset() = 0;
  virtual void thread(unsigned tid) = 0;
  /// Serialize the final shared state ("r0=1 r1=0"); called only after
  /// complete (non-truncated) schedules.
  virtual std::string outcome() = 0;
};

struct ExploreOptions {
  /// Per-schedule decision budget before truncation (0 = default).
  std::uint64_t max_steps = 0;
  /// Total schedule budget, complete + truncated (0 = default).
  std::uint64_t max_schedules = 0;
  /// Fiber stack size — litmus bodies are tiny, so default small.
  std::size_t stack_bytes = 128 * 1024;
};

struct ExploreResult {
  /// Complete schedules enumerated (each contributed an outcome).
  std::uint64_t schedules = 0;
  /// Schedules cut by the step budget (no outcome recorded).
  std::uint64_t truncated = 0;
  /// The DFS tree was fully explored within the budgets: together with
  /// truncated == 0 this certifies EVERY interleaving was enumerated.
  bool exhaustive = false;
  /// outcome string -> (count, first schedule producing it). The schedule
  /// is the tid sequence of branching decisions — feed to replay().
  struct Witness {
    std::uint64_t count = 0;
    std::vector<unsigned> schedule;
  };
  std::map<std::string, Witness> outcomes;

  /// The distinct outcome strings, for set comparisons in tests.
  std::vector<std::string> outcome_set() const;
};

/// DFS-enumerate interleavings of `test` and collect outcomes.
ExploreResult explore(LitmusTest& test, const ExploreOptions& opts = {});

/// Re-run `test` once under a committed schedule (ScriptedController
/// semantics: unknown/exhausted entries fall back to min-clock) and return
/// its outcome. This is how a bug's witness schedule becomes a regression
/// test.
std::string replay(LitmusTest& test, const std::vector<unsigned>& schedule,
                   std::size_t stack_bytes = 128 * 1024);

}  // namespace semstm::sched

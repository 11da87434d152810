#include "sched/virtual_scheduler.hpp"

#include <ucontext.h>

#include <cassert>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/context.hpp"
#include "sched/yieldpoint.hpp"
#include "util/rng.hpp"

// ASan cannot see ucontext stack switches on its own: on the first abort
// exception unwinding inside a fiber, __asan_handle_no_return tries to
// unpoison what it thinks is the carrier thread's stack and crashes (see
// google/sanitizers#189). The fiber-switch annotations below tell ASan
// which stack is live around every swapcontext, which makes the simulator
// ASan-clean (SEMSTM_SANITIZE=address runs the full suite).
#if defined(__SANITIZE_ADDRESS__)
#define SEMSTM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SEMSTM_ASAN_FIBERS 1
#endif
#endif
#ifdef SEMSTM_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace semstm::sched {

namespace {
constexpr std::uint64_t kInfinity = std::numeric_limits<std::uint64_t>::max();
}

struct VirtualScheduler::Impl : YieldHook {
  struct Fiber {
    ucontext_t ctx{};
    std::unique_ptr<char[]> stack;
    std::uint64_t vclock = 0;
    bool done = false;
    /// Controller mode only: last step was a spin_pause and no other fiber
    /// has run since — withheld from the choice set (see
    /// schedule_controller.hpp for the finiteness argument).
    bool parked = false;
    unsigned tid = 0;
    Rng rng{0};
    ThreadCtx* saved_tls = nullptr;  ///< semstm context parked across switches
    std::exception_ptr error;
#ifdef SEMSTM_ASAN_FIBERS
    void* fake_stack = nullptr;  ///< ASan state parked while switched out
#endif
  };

  SimOptions opts;
  std::vector<Fiber> fibers;
  ucontext_t main_ctx{};
  Fiber* current = nullptr;
  /// Clock of the next-best runnable fiber; the current fiber yields only
  /// once its own clock passes this (keeps switches rare but ordering exact).
  std::uint64_t preempt_at = kInfinity;
  const std::function<void(unsigned)>* body = nullptr;
  std::uint64_t switches = 0;
  /// Adversarial-schedule mode (null = default min-clock policy).
  ScheduleController* controller = nullptr;
  /// Set once the controller answered kStopAll: every subsequent yield
  /// point raises ScheduleStopped so the fibers unwind and finish.
  bool stopping = false;
  /// Whether the step that just yielded was a spin_pause (controller mode).
  bool spin_step = false;
#ifdef SEMSTM_ASAN_FIBERS
  void* main_fake_stack = nullptr;
  /// Carrier-thread stack bounds, captured at the first fiber entry (ASan
  /// reports them as the "old" stack); target of every fiber→main switch.
  const void* main_stack_bottom = nullptr;
  std::size_t main_stack_size = 0;
#endif

  explicit Impl(SimOptions o) : opts(o) {}

  // Fiber-switch annotation helpers; no-ops outside ASan builds.
  void asan_switch_to_fiber([[maybe_unused]] Fiber& f) {
#ifdef SEMSTM_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&main_fake_stack, f.stack.get(),
                                   opts.stack_bytes);
#endif
  }
  void asan_back_on_main() {
#ifdef SEMSTM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(main_fake_stack, nullptr, nullptr);
#endif
  }
  /// `dying` releases the fiber's ASan fake-stack state: its frames are
  /// gone for good once the trampoline returns through uc_link.
  void asan_switch_to_main([[maybe_unused]] Fiber& f,
                           [[maybe_unused]] bool dying) {
#ifdef SEMSTM_ASAN_FIBERS
    __sanitizer_start_switch_fiber(dying ? nullptr : &f.fake_stack,
                                   main_stack_bottom, main_stack_size);
#endif
  }
  void asan_back_on_fiber([[maybe_unused]] Fiber& f, bool first) {
#ifdef SEMSTM_ASAN_FIBERS
    if (first) {  // capture where the carrier stack lives as a side effect
      __sanitizer_finish_switch_fiber(nullptr, &main_stack_bottom,
                                      &main_stack_size);
    } else {
      __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
    }
#else
    (void)first;
#endif
  }

  // YieldHook: the running fiber's virtual clock is the observability
  // layer's time source, so traces and latency histograms are measured in
  // the same deterministic ticks as throughput.
  std::uint64_t now() const noexcept override {
    return current != nullptr ? current->vclock : 0;
  }

  /// Controller mode: hand control back to the dispatch loop for the next
  /// scheduling decision (every yield point is a decision point).
  void controller_yield(Fiber* f) {
    if (stopping) throw ScheduleStopped{};
    ++switches;
    asan_switch_to_main(*f, /*dying=*/false);
    swapcontext(&f->ctx, &main_ctx);  // back to the dispatch loop
    asan_back_on_fiber(*f, /*first=*/false);
    if (stopping) throw ScheduleStopped{};
  }

  // YieldHook: called from inside the running fiber on every STM op.
  void tick(std::uint64_t cost) override {
    Fiber* f = current;
    assert(f != nullptr);
    if (controller != nullptr) {
      // No jitter: a schedule must replay bit-identically from its choice
      // sequence alone, so costs stay deterministic.
      f->vclock += cost;
      controller_yield(f);
      return;
    }
    std::uint64_t c = cost;
    if (opts.jitter_pct > 0 && cost > 0) {
      // At least ±1 of spread even for unit costs, so different seeds
      // explore different interleavings.
      c += f->rng.below(cost * opts.jitter_pct / 100 + 2);
    }
    f->vclock += c;
    if (f->vclock > preempt_at + opts.quantum) {
      ++switches;
      asan_switch_to_main(*f, /*dying=*/false);
      swapcontext(&f->ctx, &main_ctx);  // back to the dispatch loop
      asan_back_on_fiber(*f, /*first=*/false);
    }
  }

  // YieldHook: busy-wait step — a tick that additionally marks the fiber
  // as not-progressing so the controller's choice set can park it.
  void spin(std::uint64_t cost) override {
    if (controller != nullptr) spin_step = true;
    tick(cost);
  }

  // YieldHook: zero-cost preemption point inside protocol-critical windows.
  // Invisible (no clock advance, no switch) outside controller mode.
  void sched_point() override {
    if (controller == nullptr) return;
    controller_yield(current);
  }

  static void trampoline();

  /// Own frame: getcontext returns twice, so -Wclobbered would flag run_all.
  [[gnu::noinline]] void make_fiber_context(Fiber& f) {
    if (getcontext(&f.ctx) != 0) throw std::runtime_error("getcontext");
    f.ctx.uc_stack.ss_sp = f.stack.get();
    f.ctx.uc_stack.ss_size = opts.stack_bytes;
    f.ctx.uc_link = &main_ctx;
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(&Impl::trampoline), 0);
  }

  void enter(Fiber& f) {
    current = &f;
    // Compute the preemption horizon: the minimum clock among the *other*
    // runnable fibers.
    preempt_at = kInfinity;
    for (const Fiber& g : fibers) {
      if (!g.done && g.tid != f.tid && g.vclock < preempt_at) {
        preempt_at = g.vclock;
      }
    }
    set_hook(this);
    tls_ctx() = f.saved_tls;
    asan_switch_to_fiber(f);
    swapcontext(&main_ctx, &f.ctx);
    asan_back_on_main();
    f.saved_tls = tls_ctx();
    tls_ctx() = nullptr;
    set_hook(nullptr);
    current = nullptr;
  }

  /// Controller-mode decision: build the choice set (runnable minus
  /// parked; everyone when all runnable are parked), consult the
  /// controller, and return the chosen fiber — or null when the controller
  /// answered kStopAll (stopping is then set).
  Fiber* consult_controller(std::vector<RunnableFiber>& choices) {
    choices.clear();
    bool any_unparked = false;
    for (const Fiber& f : fibers) {
      if (!f.done && !f.parked) any_unparked = true;
    }
    // All runnable fibers just spun: offer everyone again (their waits may
    // be bounded and must keep counting down), flagged as parked.
    const bool forced = !any_unparked;
    for (Fiber& f : fibers) {
      if (f.done) continue;
      if (forced) f.parked = false;
      if (!f.parked) choices.push_back({f.tid, f.vclock, forced});
    }
    const unsigned tid = controller->pick(choices);
    if (tid == ScheduleController::kStopAll) {
      stopping = true;
      return nullptr;
    }
    for (const RunnableFiber& c : choices) {
      if (c.tid == tid) return &fibers[tid];
    }
    throw std::logic_error("ScheduleController picked a non-offered tid");
  }

  SimResult run_all(unsigned n, const std::function<void(unsigned)>& b,
                    ScheduleController* ctl) {
    body = &b;
    controller = ctl;
    stopping = false;
    // Recycle stack allocations across runs: the litmus explorer re-runs a
    // test tens of thousands of times on one scheduler, and a fresh
    // (zero-initialized) stack per fiber per run dominated its cost.
    // new[] without () leaves the stack uninitialized — makecontext and
    // the trampoline initialize everything a fiber actually reads.
    std::vector<std::unique_ptr<char[]>> stacks;
    stacks.reserve(n);
    for (Fiber& f : fibers) {
      if (stacks.size() < n && f.stack) stacks.push_back(std::move(f.stack));
    }
    while (stacks.size() < n) {
      stacks.emplace_back(new char[opts.stack_bytes]);
    }
    fibers.clear();
    fibers.resize(n);
    SplitMix64 seeder(opts.seed);
    for (unsigned i = 0; i < n; ++i) {
      Fiber& f = fibers[i];
      f.tid = i;
      f.rng = Rng(seeder.next());
      f.stack = std::move(stacks[i]);
      make_fiber_context(f);
    }

    bool truncated = false;
    std::vector<RunnableFiber> choices;
    for (;;) {
      Fiber* next = nullptr;
      if (controller != nullptr && !stopping) {
        bool any = false;
        for (const Fiber& f : fibers) any = any || !f.done;
        if (!any) break;
        next = consult_controller(choices);
        if (next == nullptr) {  // kStopAll: drain via min-clock below
          truncated = true;
          continue;
        }
      } else {
        for (Fiber& f : fibers) {
          if (!f.done && (next == nullptr || f.vclock < next->vclock)) {
            next = &f;
          }
        }
        if (next == nullptr) break;
      }
      spin_step = false;
      enter(*next);
      if (controller != nullptr && !stopping) {
        if (spin_step && !next->done) {
          next->parked = true;  // no progress: must let someone else run
        } else {
          for (Fiber& f : fibers) f.parked = false;
        }
      }
    }
    controller = nullptr;

    SimResult r;
    r.switches = switches;
    r.truncated = truncated;
    r.thread_clocks.reserve(n);
    std::exception_ptr first_error;
    for (Fiber& f : fibers) {
      r.thread_clocks.push_back(f.vclock);
      r.makespan = std::max(r.makespan, f.vclock);
      if (!f.error || first_error) continue;
      // ScheduleStopped is the truncation mechanism, not a failure: only
      // genuine body exceptions propagate to the caller.
      try {
        std::rethrow_exception(f.error);
      } catch (const ScheduleStopped&) {
      } catch (...) {
        first_error = f.error;
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return r;
  }
};

namespace {
/// The impl whose fiber is being bootstrapped; set immediately before the
/// first swap into a fiber (single carrier thread, so a plain TLS works).
thread_local VirtualScheduler::Impl* g_bootstrapping = nullptr;
}  // namespace

void VirtualScheduler::Impl::trampoline() {
  Impl* impl = g_bootstrapping;
  Fiber* self = impl->current;
  impl->asan_back_on_fiber(*self, /*first=*/true);
  try {
    (*impl->body)(self->tid);
  } catch (...) {
    self->error = std::current_exception();
  }
  self->done = true;
  // uc_link returns to main_ctx when this function ends; the annotation
  // precedes the implicit switch and frees this fiber's ASan state.
  impl->asan_switch_to_main(*self, /*dying=*/true);
}

VirtualScheduler::VirtualScheduler(SimOptions opts) : impl_(new Impl(opts)) {}
VirtualScheduler::~VirtualScheduler() { delete impl_; }

SimResult VirtualScheduler::run(unsigned n,
                                const std::function<void(unsigned)>& body) {
  return run(n, body, nullptr);
}

SimResult VirtualScheduler::run(unsigned n,
                                const std::function<void(unsigned)>& body,
                                ScheduleController* controller) {
  g_bootstrapping = impl_;
  SimResult r = impl_->run_all(n, body, controller);
  g_bootstrapping = nullptr;
  return r;
}

}  // namespace semstm::sched

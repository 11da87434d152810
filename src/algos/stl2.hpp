// S-TL2 (paper §4.2, Algorithm 7): TL2 extended with hybrid
// version/semantic validation.
//
// Compares live in a dedicated *compare-set* (address + relation), while
// plain reads keep TL2's orec-based read-set — two validators, one per
// set. Execution is split into three phases:
//
//   Phase 1 (before the first plain read): cmp operations validate the
//   compare-set and *extend* the transaction's start version, so semantic
//   operations never force version aborts among themselves. A locked orec
//   is waited out (bounded) rather than aborted on.
//
//   Phase 2 (after the first plain read): the snapshot is frozen; cmp
//   behaves like a read w.r.t. version checks but still records a semantic
//   entry, so commit-time validation can tolerate value changes that keep
//   the relation's outcome.
//
//   Commit: TL2's own sequence — write orecs locked, write version wv
//   drawn (GV4), then ONE compare-set pass against wv (commit_holds()),
//   where Alg. 7 validates first and re-validates on every failed clock
//   CAS. The drawn wv is the serialization point (DESIGN.md §4 item 4).
//
// Stl2Core is a sealed sibling of Tl2Core over the shared Tl2CoreT logic:
// it shadows begin() and the raw() and commit_holds() hooks, and adds the
// compare-set machinery — all statically bound.
#pragma once

#include <cstdint>

#include "algos/tl2.hpp"
#include "runtime/backoff.hpp"
#include "runtime/readset.hpp"

namespace semstm {

class Stl2Algorithm final : public Tl2Algorithm {
 public:
  explicit Stl2Algorithm(const AlgoOptions& opts = {}) : Tl2Algorithm(opts) {}
  const char* name() const noexcept override { return "stl2"; }
  bool semantic() const noexcept override { return true; }
  std::unique_ptr<Tx> make_tx() override;
};

class Stl2Core final : public Tl2CoreT<Stl2Core> {
 public:
  explicit Stl2Core(Tl2Algorithm& shared) : Tl2CoreT(shared) {}

  static constexpr AlgoId kId = AlgoId::kStl2;
  static constexpr const char* kName = "stl2";
  const char* algorithm() const noexcept { return kName; }

  void begin() {
    compares_.clear();
    Tl2CoreT::begin();
  }

  /// Alg. 7 Compare (lines 4-36).
  [[gnu::always_inline]] bool cmp(const tword* addr, Rel rel,
                                  word_t operand) {
    sched::tick(sched::Cost::kCmp);
    ++stats.compares;
    trace_semantic_op(obs::SemanticOp::kCmp, addr);
    if (WriteEntry* e = writes_.find(addr)) {
      return eval(rel, raw(addr, e), operand);
    }
    bool extend = false;
    const bool result = eval(rel, read_for_cmp(addr, extend), operand);
    compares_.append_cmp(addr, rel, operand, result);
    ++stats.readset_adds;
    if (extend) extend_start_version();
    return result;
  }

  /// Address–address compare (paper §3 extension). Both loads go through
  /// the phase-aware consistent read; the entry revalidates the relation.
  bool cmp2(const tword* a, Rel rel, const tword* b) {
    sched::tick(sched::Cost::kCmp);
    ++stats.compares2;
    trace_semantic_op(obs::SemanticOp::kCmp2, a);
    WriteEntry* ea = writes_.find(a);
    WriteEntry* eb = writes_.find(b);
    if (ea != nullptr || eb != nullptr) {
      const word_t va = ea ? raw(a, ea) : read(a);
      const word_t vb = eb ? raw(b, eb) : read(b);
      return eval(rel, va, vb);
    }
    bool extend = false;
    const word_t va = read_for_cmp(a, extend);
    const word_t vb = read_for_cmp(b, extend);
    const bool result = eval(rel, va, vb);
    compares_.append_cmp2(a, rel, b, result);
    ++stats.readset_adds;
    if (extend) extend_start_version();
    return result;
  }

  /// Composed conditional (paper §3): every term operand is loaded through
  /// the phase-aware consistent read, the clause joins the compare-set as
  /// one entry, and phase 1 extends the snapshot if any load ran ahead.
  [[gnu::always_inline]] bool cmp_or(const CmpTerm* terms, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (writes_.find(terms[i].addr) != nullptr ||
          (terms[i].rhs_addr != nullptr &&
           writes_.find(terms[i].rhs_addr) != nullptr)) {
        return cmp_or_buffered(terms, n);
      }
    }
    sched::tick(sched::Cost::kCmp);  // semantic path only
    ++stats.compares;
    trace_semantic_op(obs::SemanticOp::kCmpOr, n > 0 ? terms[0].addr : nullptr);
    bool outcome = false;
    bool extend = false;
    for (std::size_t i = 0; i < n; ++i) {
      const word_t lhs = read_for_cmp(terms[i].addr, extend);
      const word_t rhs = terms[i].rhs_addr != nullptr
                             ? read_for_cmp(terms[i].rhs_addr, extend)
                             : terms[i].operand;
      outcome = outcome || eval(terms[i].rel, lhs, rhs);
    }
    compares_.append_clause(terms, n, outcome);
    ++stats.readset_adds;
    if (extend) extend_start_version();
    return outcome;
  }

  /// Deferred increment — identical write-set treatment to S-NOrec.
  void inc(tword* addr, word_t delta) {
    sched::tick(sched::Cost::kInc);
    ++stats.increments;
    trace_semantic_op(obs::SemanticOp::kInc, addr);
    writes_.put_inc(addr, delta);
  }

  /// RAW promotion: a buffered increment read back becomes a conventional
  /// read + write (read part via the consistent orec-checked read).
  /// Shadows the base hook; Tl2CoreT::read reaches it through self().
  word_t raw(const tword* addr, WriteEntry* e) {
    if (e->kind == WriteKind::kIncrement) {
      ++stats.promotions;
      trace_semantic_op(obs::SemanticOp::kPromote, addr);
      const word_t current = read_shared(addr);  // appends orec to read-set
      e->value += current;
      e->kind = WriteKind::kWrite;
    }
    return e->value;
  }

  /// Commit validation hook (write locks held, wv drawn; TL2's read-set
  /// check of the phase-2 plain reads follows): one compare-set pass. A
  /// clause whose operand orecs are all unmoved loads nothing; otherwise
  /// it is re-evaluated on operands loaded as of wv (stamped ≥ wv fails).
  bool commit_holds(std::uint64_t wv) {
    obs::ScopedLatency lat(stats.lat_validate);
    ++stats.validations;
    for (const auto clause : compares_) {
      sched::tick(sched::Cost::kValidateEntry);
      ++stats.validate_entries;
      bool skip = true;
      for (unsigned i = 0; i < clause.count() && skip; ++i) {
        const ReadEntry& t = clause.row(i);
        skip = unmoved(t.addr) && unmoved(t.rhs_addr);
      }
      if (skip) continue;
      bool v = false;
      for (unsigned i = 0; i < clause.count() && !v; ++i) {
        const ReadEntry& t = clause.row(i);
        word_t lhs = 0;
        word_t rhs = t.operand;
        if (!load_at(t.addr, wv - 1, lhs) ||
            (t.rhs_addr != nullptr && !load_at(t.rhs_addr, wv - 1, rhs))) {
          return false;
        }
        v = eval(t.rel, lhs, rhs);
      }
      if (v != clause.expected()) {
        return note_conflict(obs::AbortCause::kCmpRevalidation, clause.addr());
      }
    }
    return true;
  }

 private:
  /// Phase-aware consistent load for cmp operands: ONE version/owner/
  /// value/owner/version sandwich, inlined at every compare. An unlocked,
  /// stable word stamped within the snapshot is returned in either phase;
  /// in phase 1 (empty read-set) one stamped past start_version_ is
  /// returned too and sets `extend`, scheduling a snapshot extension. In
  /// phase 2 the TL2 read rules apply but *without* joining the orec
  /// read-set (the semantic entry subsumes it). Everything else — a held
  /// orec, a moving version, a phase-2 stamp past the snapshot — goes to
  /// the outlined read_for_cmp_slow().
  [[gnu::always_inline]] word_t read_for_cmp(const tword* addr,
                                             bool& extend) {
    const Orec& o = shared_.orecs().of(addr);
    const std::uint64_t v1 = o.version.load(std::memory_order_acquire);
    const bool free_before = !o.locked_by_other(this);
    const word_t val = addr->load(std::memory_order_acquire);
    const bool free = free_before && !o.locked_by_other(this);
    if (free && o.version.load(std::memory_order_acquire) == v1) {
      if (v1 <= start_version_) return val;
      if (reads_.empty()) {
        extend = true;
        return val;
      }
    }
    return read_for_cmp_slow(addr, free, extend);
  }

  /// The cases the fast path does not settle; `free` says whether its
  /// sandwich saw the orec unlocked on both sides. Phase 2 (lines 26-34):
  /// the snapshot is frozen, so the failed check aborts — a held orec as a
  /// write-lock conflict, a moved or newer version as a stale read, each
  /// naming the orec and its (best-effort) owner. Phase 1 (lines 10-25):
  /// a held orec is waited out (bounded) rather than aborted on, and a
  /// version that moved across the load is retried.
  [[gnu::cold, gnu::noinline]] word_t read_for_cmp_slow(const tword* addr,
                                                        bool free,
                                                        bool& extend) {
    Orec& o = shared_.orecs().of(addr);
    if (!reads_.empty()) {
      abort_tx(free ? obs::AbortCause::kReadValidation
                    : obs::AbortCause::kWriteLockConflict,
               addr, orec_ix(&o), o.owner_hint());
    }
    for (;;) {
      const std::uint64_t v1 = o.version.load(std::memory_order_acquire);
      if (o.locked_by_other(this)) {
        // Wait until unlocked instead of aborting (lines 11-12).
        if (!bounded_wait([&] { return !o.locked_by_other(this); })) {
          // starvation timeout (§4.2)
          abort_tx(obs::AbortCause::kWriteLockConflict, addr, orec_ix(&o),
                   o.owner_hint());
        }
        continue;
      }
      const word_t val = addr->load(std::memory_order_acquire);
      if (o.locked_by_other(this)) continue;
      const std::uint64_t v2 = o.version.load(std::memory_order_acquire);
      if (v1 != v2) continue;  // concurrent version move: retry (line 16)
      if (v1 > start_version_) extend = true;
      return val;
    }
  }

  /// Buffered operands: plain evaluation, whose reads tick kRead — do not
  /// also charge kCmp for a semantic op that never happens. Out of line:
  /// a clause over the transaction's own writes is rare, and the
  /// delegation would otherwise inline a second probe into every cmp_or.
  [[gnu::noinline]] bool cmp_or_buffered(const CmpTerm* terms, std::size_t n) {
    return generic_cmp_or(*this, terms, n);
  }

  /// Version/owner/value/owner/version sandwich admitting only a value
  /// stamped at or below `bound`; on failure fail_* carry the attribution.
  bool load_at(const tword* addr, std::uint64_t bound, word_t& out) {
    const Orec& o = shared_.orecs().of(addr);
    const std::uint64_t v1 = o.version.load(std::memory_order_acquire);
    const bool free_before = !o.locked_by_other(this);
    out = addr->load(std::memory_order_acquire);
    if (!free_before || o.locked_by_other(this)) {
      return note_conflict(obs::AbortCause::kWriteLockConflict, addr);
    }
    const std::uint64_t v2 = o.version.load(std::memory_order_acquire);
    return (v1 == v2 && v1 <= bound) ||
           note_conflict(obs::AbortCause::kReadValidation, addr);
  }

  /// Commit-time skip test: no other writer can have changed the word
  /// since the snapshot (its orec is free and not newer than it). A null
  /// operand (a term with an immediate right-hand side) is unmoved.
  bool unmoved(const tword* addr) {
    if (addr == nullptr) return true;
    const Orec& o = shared_.orecs().of(addr);
    return !o.locked_by_other(this) &&
           o.version.load(std::memory_order_acquire) <= start_version_;
  }

  /// Lines 19-25: validate the compare-set at a stable timestamp, then
  /// adopt that timestamp as the new start version. Out of line and cold:
  /// only a phase-1 compare that observed a newer stamp extends.
  [[gnu::cold, gnu::noinline]] void extend_start_version() {
    for (;;) {
      const std::uint64_t time = shared_.clock().load();
      if (!compare_set_holds()) {
        abort_tx(fail_cause_, conflict_, fail_orec_, fail_owner_);
      }
      if (time == shared_.clock().load()) {
        start_version_ = time;
        return;
      }
      // A writer committed during validation: retry (line 23).
    }
  }

  /// Alg. 7 ValidateCompareSet (lines 56-65) as a predicate, for phase-1
  /// extension: semantic revalidation. A locked orec means a writer may be
  /// mid-write-back, so the entry cannot be evaluated: wait it out
  /// (bounded, §4.2's timeout mechanism — the execution phase holds no
  /// locks). On failure fail_cause_/conflict_ carry the attribution: a
  /// stuck lock is a write-lock conflict, a flipped outcome a compare-set
  /// revalidation failure — the signature abort of the semantic design.
  [[gnu::noinline]] bool compare_set_holds() {
    obs::ScopedLatency lat(stats.lat_validate);
    ++stats.validations;
    for (const auto clause : compares_) {
      sched::tick(sched::Cost::kValidateEntry);
      ++stats.validate_entries;
      for (unsigned i = 0; i < clause.count(); ++i) {
        const ReadEntry& term = clause.row(i);
        if (!wait_unlocked(term.addr) ||
            (term.rhs_addr != nullptr && !wait_unlocked(term.rhs_addr))) {
          return false;
        }
      }
      // Semantic validation (line 63-64).
      if (!clause.holds()) {
        return note_conflict(obs::AbortCause::kCmpRevalidation, clause.addr());
      }
    }
    return true;
  }

  /// Record a failed check's attribution in fail_* and return false. A
  /// held lock or a moved version names the operand's orec and its
  /// (best-effort) owner; a flipped clause names none — the flip is a
  /// property of its values, so that site stays address-granular.
  bool note_conflict(obs::AbortCause cause, const tword* addr) {
    const bool flip = cause == obs::AbortCause::kCmpRevalidation;
    const Orec& o = shared_.orecs().of(addr);
    fail_cause_ = cause;
    conflict_ = addr;
    fail_orec_ = flip ? obs::kNoOrec : orec_ix(&o);
    fail_owner_ = flip ? nullptr : o.owner_hint();
    return false;
  }

  /// False (fail_* set) = the orec stayed locked by another committer past
  /// the bounded wait. Commit write-backs are short, making timeouts rare.
  bool wait_unlocked(const tword* addr) {
    Orec& o = shared_.orecs().of(addr);
    return !o.locked_by_other(this) ||
           bounded_wait([&] { return !o.locked_by_other(this); }, 512) ||
           note_conflict(obs::AbortCause::kWriteLockConflict, addr);
  }

  CompareSet compares_;
};

inline std::unique_ptr<Tx> Stl2Algorithm::make_tx() {
  return std::make_unique<TxFacade<Stl2Core>>(*this);
}

}  // namespace semstm

// Read-set / compare-set storage.
//
// One entry type covers the whole validation spectrum of §4:
//  - a plain read is a single-term clause `addr EQ observed` expected true
//    (value-based validation is the EQ special case of semantic
//    validation);
//  - a semantic cmp is a single-term clause with the observed outcome;
//  - a composed conditional (paper §3, e.g. the hashtable probe's
//    `state == REMOVED || key != value`) is a multi-term *disjunctive*
//    clause validated as a unit: the entry holds while the OR of its terms
//    still evaluates to the recorded outcome. Conjunctions need no special
//    support — `A && B` observed true is simply two entries.
//
// Hot-path design. The read-set is appended to on *every* plain read and
// every semantic compare, so the append is per-access metadata cost — the
// overhead the paper's headline claim is about. Three choices keep the
// append cheap and the validation loop O(unique reads):
//  - Rows are 32 bytes: one flat term plus clause header, instead of a
//    fixed kMaxTerms-term array. Multi-term clauses (rare) span the head
//    row plus nterms-1 continuation rows; iteration is clause-granular.
//  - append_value deduplicates identical value snapshots against a small
//    trailing window, so a transaction that re-reads the same address
//    repeatedly validates it once, not once per read. Skipping is
//    semantics-preserving: validating `addr EQ observed` twice is exactly
//    validating it once, and within one transaction two plain reads of the
//    same address can only legally observe the same value (a change fails
//    the earlier entry during revalidation).
//  - Rows are bump-appended into one buffer the set keeps across
//    transactions: an append is a capacity compare and a 32-byte store,
//    and only the (cold, out-of-line) growth path allocates. clear() keeps
//    the buffer, so a descriptor reaches its steady-state capacity once.
//
// Validation walk. NOrec-family validation is one first_failing() pass.
// A 1- or 2-term clause whose terms compare a word EQ/NEQ against an
// immediate — every plain read, and the hashtable probe's guards and
// clauses — is evaluated without the relation switch, as
// `(load == operand) != (rel == NEQ)` per term, and the cursor then
// advances by a constant 1 or 2 rows, so the next clause's loads need not
// wait on this row's nterms. Ordered relations, address–address terms and
// 3-term clauses go through Clause::holds().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/semantics.hpp"
#include "core/word.hpp"

namespace semstm {

/// One 32-byte row. Head rows carry the clause header (nterms ≥ 1,
/// expected); continuation rows (terms 2..n of a composed clause) have
/// nterms == 0 and are only reachable through their head.
struct ReadEntry {
  const tword* addr = nullptr;
  const tword* rhs_addr = nullptr;  ///< non-null: address–address compare
  word_t operand = 0;
  Rel rel = Rel::EQ;
  std::uint8_t nterms = 1;  ///< rows in this clause (head); 0 = continuation
  bool expected = true;     ///< recorded outcome of the OR over the terms

  /// Re-evaluate this row's term against current memory.
  bool term_eval_now() const noexcept {
    const word_t lhs = addr->load(std::memory_order_acquire);
    const word_t rhs =
        rhs_addr ? rhs_addr->load(std::memory_order_acquire) : operand;
    return eval(rel, lhs, rhs);
  }
};
static_assert(sizeof(ReadEntry) == 32,
              "read-set rows are per-access metadata; keep them compact");

class ReadSet {
 public:
  static constexpr unsigned kMaxTerms = 3;

  /// Rows of the first buffer; each growth doubles it.
  static constexpr std::size_t kInitialRows = 64;

  ReadSet() = default;
  // top_/limit_ point into rows_: a copy or move would alias the buffer.
  ReadSet(const ReadSet&) = delete;
  ReadSet& operator=(const ReadSet&) = delete;

  /// How many trailing rows append_value scans for an identical value
  /// snapshot before appending. Repeated reads of the same address are
  /// temporally clustered (loop bodies, field re-reads), so a tiny window
  /// catches nearly all duplicates at O(1) cost per read.
  static constexpr std::size_t kDedupWindow = 4;

  /// Clause view over a head row and its continuation rows.
  class Clause {
   public:
    explicit Clause(const ReadEntry* head) : head_(head) {}

    unsigned count() const noexcept { return head_->nterms; }
    const ReadEntry& row(unsigned i) const noexcept { return head_[i]; }
    const tword* addr() const noexcept { return head_->addr; }
    bool expected() const noexcept { return head_->expected; }

    /// Semantic validation: does the clause still evaluate to `expected`?
    bool holds() const noexcept {
      bool v = false;
      for (unsigned i = 0; i < head_->nterms && !v; ++i) {
        v = head_[i].term_eval_now();
      }
      return v == head_->expected;
    }

    /// True when the clause records a *semantic* observation (cmp/cmp2 or
    /// a composed clause) rather than a plain read's value snapshot — used
    /// by abort-cause attribution to split kReadValidation from
    /// kCmpRevalidation. An EQ compare against an immediate that was
    /// observed true is structurally identical to a plain read and lands
    /// in the read bucket; the two are also validated identically, so the
    /// attribution loses nothing.
    bool semantic() const noexcept {
      return head_->nterms != 1 || !head_->expected ||
             head_->rel != Rel::EQ || head_->rhs_addr != nullptr;
    }

   private:
    const ReadEntry* head_;
  };

  /// Clause-granular iterator: ++ skips a head row and its continuations.
  class const_iterator {
   public:
    struct ArrowProxy {
      Clause c;
      const Clause* operator->() const noexcept { return &c; }
    };

    explicit const_iterator(const ReadEntry* p) : p_(p) {}
    Clause operator*() const noexcept { return Clause(p_); }
    ArrowProxy operator->() const noexcept { return {Clause(p_)}; }
    const_iterator& operator++() noexcept {
      p_ += p_->nterms;
      return *this;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return p_ == o.p_;
    }
    bool operator!=(const const_iterator& o) const noexcept {
      return p_ != o.p_;
    }

   private:
    const ReadEntry* p_;
  };

  /// Record a plain read's value snapshot. Returns false when an identical
  /// entry (same address, same observed value) sits within the dedup
  /// window — the duplicate is skipped.
  bool append_value(const tword* addr, word_t observed) {
    const std::size_t n = rows();
    const std::size_t lookback = n < kDedupWindow ? n : kDedupWindow;
    for (std::size_t i = 1; i <= lookback; ++i) {
      const ReadEntry& p = *(top_ - i);
      // nterms == 1 excludes clause heads AND continuation rows (0).
      if (p.addr == addr && p.operand == observed && p.nterms == 1 &&
          p.expected && p.rel == Rel::EQ && p.rhs_addr == nullptr) {
        return false;
      }
    }
    *bump(1) = ReadEntry{addr, nullptr, observed, Rel::EQ, 1, true};
    ++clauses_;
    return true;
  }

  /// Record a semantic compare with its observed outcome.
  void append_cmp(const tword* addr, Rel rel, word_t operand, bool outcome) {
    *bump(1) = ReadEntry{addr, nullptr, operand, rel, 1, outcome};
    ++clauses_;
  }

  void append_cmp2(const tword* a, Rel rel, const tword* b, bool outcome) {
    *bump(1) = ReadEntry{a, b, 0, rel, 1, outcome};
    ++clauses_;
  }

  /// Record a disjunctive clause (OR of up to kMaxTerms terms) with its
  /// observed outcome. A zero-term clause is vacuous (its OR is constantly
  /// false) and records nothing.
  void append_clause(const CmpTerm* terms, std::size_t n, bool outcome) {
    const std::size_t m = n < kMaxTerms ? n : kMaxTerms;
    if (m == 0) return;
    ReadEntry* row = bump(m);  // the whole clause, contiguous
    for (std::size_t i = 0; i < m; ++i) {
      row[i] = ReadEntry{terms[i].addr, terms[i].rhs_addr, terms[i].operand,
                         terms[i].rel,
                         static_cast<std::uint8_t>(i == 0 ? m : 0), outcome};
    }
    ++clauses_;
  }

  bool empty() const noexcept { return top_ == rows_.get(); }
  /// Number of clauses (validation units), not rows.
  std::size_t size() const noexcept { return clauses_; }
  /// Number of 32-byte rows (clauses plus continuation rows).
  std::size_t rows() const noexcept {
    return static_cast<std::size_t>(top_ - rows_.get());
  }
  /// Rows the buffer holds before the next growth; clear() keeps it.
  std::size_t capacity() const noexcept {
    return static_cast<std::size_t>(limit_ - rows_.get());
  }

  void clear() noexcept {
    top_ = rows_.get();
    clauses_ = 0;
  }

  const_iterator begin() const noexcept { return const_iterator(rows_.get()); }
  const_iterator end() const noexcept { return const_iterator(top_); }

  /// One validation pass in append order. Calls `on_clause()` once per
  /// clause, before evaluating it, and stops at the first clause that no
  /// longer evaluates to its recorded outcome: returns its head row
  /// (nullptr when every clause holds). So a pass that fails on the k-th
  /// clause calls `on_clause` exactly k times.
  template <typename OnClause>
  const ReadEntry* first_failing(OnClause&& on_clause) const {
    const ReadEntry* p = rows_.get();
    const ReadEntry* const end = top_;
    while (p != end) {
      on_clause();
      if (immediate_eq(p[0]) & (p->nterms == 1)) {
        if (eq_term_now(p[0]) != p->expected) return p;
        p += 1;
      } else if (p->nterms == 2 && (immediate_eq(p[0]) & immediate_eq(p[1]))) {
        if ((eq_term_now(p[0]) | eq_term_now(p[1])) != p->expected) return p;
        p += 2;
      } else {
        if (!Clause(p).holds()) return p;
        p += p->nterms;
      }
    }
    return nullptr;
  }

 private:
  /// An EQ/NEQ term against an immediate operand: the fast-path shape.
  static bool immediate_eq(const ReadEntry& r) noexcept {
    return (r.rhs_addr == nullptr) & ((r.rel == Rel::EQ) | (r.rel == Rel::NEQ));
  }

  /// eval(r.rel, *r.addr, r.operand) for an immediate_eq term, without
  /// the switch: NEQ is EQ's negation.
  static bool eq_term_now(const ReadEntry& r) noexcept {
    return (r.addr->load(std::memory_order_acquire) == r.operand) !=
           (r.rel == Rel::NEQ);
  }

  /// Reserve `k` contiguous rows at the top and return the first.
  ReadEntry* bump(std::size_t k) {
    if (static_cast<std::size_t>(limit_ - top_) < k) grow(k);
    ReadEntry* at = top_;
    top_ += k;
    return at;
  }

  /// Out of line: taken only until a descriptor's buffer has reached its
  /// largest transaction, so it stays out of every inlined append.
  [[gnu::cold, gnu::noinline]] void grow(std::size_t k) {
    const std::size_t used = rows();
    std::size_t cap = capacity() == 0 ? kInitialRows : 2 * capacity();
    while (cap < used + k) cap *= 2;
    auto bigger = std::make_unique<ReadEntry[]>(cap);
    std::copy(rows_.get(), top_, bigger.get());
    rows_ = std::move(bigger);
    top_ = rows_.get() + used;
    limit_ = rows_.get() + cap;
  }

  std::unique_ptr<ReadEntry[]> rows_;
  ReadEntry* top_ = nullptr;    ///< next free row
  ReadEntry* limit_ = nullptr;  ///< one past the buffer's last row
  std::size_t clauses_ = 0;
};

/// S-TL2 keeps semantic compares in a dedicated set with the same entry
/// layout (paper §4.2); alias for clarity at use sites.
using CompareSet = ReadSet;

}  // namespace semstm

// Unit tests for read-set / compare-set entries and semantic validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "runtime/readset.hpp"
#include "util/rng.hpp"

namespace semstm {
namespace {

TEST(ReadSet, ValueEntryHoldsWhileValueUnchanged) {
  ReadSet rs;
  tword w{7};
  rs.append_value(&w, 7);
  EXPECT_TRUE(rs.begin()->holds());
  w.store(8);
  EXPECT_FALSE(rs.begin()->holds());  // value-based validation (NOrec)
  w.store(7);
  EXPECT_TRUE(rs.begin()->holds());   // ABA is fine for value validation
}

TEST(ReadSet, TrueCompareEntryStoresRelation) {
  // x > 0 observed true: entry must keep holding while x stays positive,
  // even when the exact value changes — the paper's "false conflict" case.
  ReadSet rs;
  tword x{to_word<std::int64_t>(5)};
  rs.append_cmp(&x, Rel::SGT, to_word<std::int64_t>(0), /*outcome=*/true);
  EXPECT_TRUE(rs.begin()->holds());
  x.store(to_word<std::int64_t>(123));  // concurrent change, still > 0
  EXPECT_TRUE(rs.begin()->holds());
  x.store(to_word<std::int64_t>(-1));   // semantic violation
  EXPECT_FALSE(rs.begin()->holds());
}

TEST(ReadSet, FalseCompareEntryStoresInverse) {
  // x > 10 observed false: the inverse (x <= 10) must keep holding.
  ReadSet rs;
  tword x{to_word<std::int64_t>(5)};
  rs.append_cmp(&x, Rel::SGT, to_word<std::int64_t>(10), /*outcome=*/false);
  EXPECT_TRUE(rs.begin()->holds());
  x.store(to_word<std::int64_t>(10));
  EXPECT_TRUE(rs.begin()->holds());
  x.store(to_word<std::int64_t>(11));
  EXPECT_FALSE(rs.begin()->holds());
}

TEST(ReadSet, AddressAddressEntryComparesBothCurrentValues) {
  ReadSet rs;
  tword head{3};
  tword tail{3};
  rs.append_cmp2(&head, Rel::EQ, &tail, /*outcome=*/true);
  EXPECT_TRUE(rs.begin()->holds());
  // Both move together (enqueue+dequeue pair): relation still holds.
  head.store(4);
  tail.store(4);
  EXPECT_TRUE(rs.begin()->holds());
  tail.store(9);
  EXPECT_FALSE(rs.begin()->holds());
}

TEST(ReadSet, ValueAndCmpOnSameAddressGetIndependentEntries) {
  // §4.1 read-after-read: a value snapshot and a semantic compare of the
  // same address are different observations — each validated on its own.
  ReadSet rs;
  tword x{1};
  rs.append_value(&x, 1);
  rs.append_cmp(&x, Rel::SGT, 0, true);
  EXPECT_EQ(rs.size(), 2u);
  x.store(2);
  auto it = rs.begin();
  EXPECT_FALSE(it->holds());       // value entry breaks
  EXPECT_TRUE((++it)->holds());    // semantic entry still true
}

TEST(ReadSet, IdenticalValueSnapshotDeduplicates) {
  // Re-reading an address re-observes the same value (anything else would
  // have aborted); the duplicate entry is skipped, so validation work is
  // O(unique reads) — and validation outcomes are unchanged, because
  // `addr EQ v` twice validates exactly like `addr EQ v` once.
  ReadSet rs;
  tword x{7};
  EXPECT_TRUE(rs.append_value(&x, 7));
  EXPECT_FALSE(rs.append_value(&x, 7));
  EXPECT_FALSE(rs.append_value(&x, 7));
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_TRUE(rs.begin()->holds());
  x.store(8);
  EXPECT_FALSE(rs.begin()->holds());  // still value-validated
}

TEST(ReadSet, DifferentObservedValuesDoNotDeduplicate) {
  ReadSet rs;
  tword x{1};
  EXPECT_TRUE(rs.append_value(&x, 1));
  EXPECT_TRUE(rs.append_value(&x, 2));  // different snapshot: kept
  EXPECT_EQ(rs.size(), 2u);
}

TEST(ReadSet, DedupLooksBeyondImmediatelyPrecedingEntry) {
  // read A, read B, read A: the second A is within the dedup window even
  // though it is not the last entry.
  ReadSet rs;
  tword a{1};
  tword b{2};
  EXPECT_TRUE(rs.append_value(&a, 1));
  EXPECT_TRUE(rs.append_value(&b, 2));
  EXPECT_FALSE(rs.append_value(&a, 1));
  EXPECT_EQ(rs.size(), 2u);
}

TEST(ReadSet, DedupWindowIsBounded) {
  // A duplicate further back than kDedupWindow distinct entries is
  // re-appended — harmless (validated twice), and keeps the append O(1).
  ReadSet rs;
  tword a{1};
  std::vector<tword> spacers(ReadSet::kDedupWindow);
  EXPECT_TRUE(rs.append_value(&a, 1));
  for (std::size_t i = 0; i < spacers.size(); ++i) {
    spacers[i].store(static_cast<word_t>(i));
    EXPECT_TRUE(rs.append_value(&spacers[i], static_cast<word_t>(i)));
  }
  EXPECT_TRUE(rs.append_value(&a, 1));  // beyond the window: appended
  EXPECT_EQ(rs.size(), 2u + spacers.size());
}

TEST(ReadSet, CmpEntriesNeverDeduplicateAgainstValueEntries) {
  // A semantic EQ observed *false* must not be mistaken for (or swallow)
  // a plain value snapshot of the same address/operand.
  ReadSet rs;
  tword x{5};
  rs.append_cmp(&x, Rel::EQ, 3, /*outcome=*/false);  // x != 3 holds
  EXPECT_TRUE(rs.append_value(&x, 5));
  EXPECT_EQ(rs.size(), 2u);
  auto it = rs.begin();
  EXPECT_TRUE(it->semantic());
  EXPECT_FALSE((++it)->semantic());
}

TEST(ReadSet, MultiTermClauseValidatesAsUnitAndSkipsDedup) {
  // A composed disjunction occupies a head row plus continuation rows;
  // iteration stays clause-granular and holds() evaluates the whole OR.
  ReadSet rs;
  tword state{0};
  tword key{42};
  const CmpTerm terms[2] = {
      CmpTerm{&state, nullptr, 1, Rel::EQ},   // state == REMOVED(1)
      CmpTerm{&key, nullptr, 42, Rel::NEQ},   // key != probe
  };
  rs.append_clause(terms, 2, /*outcome=*/false);  // both false when recorded
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.rows(), 2u);
  EXPECT_TRUE(rs.begin()->holds());
  key.store(43);  // second disjunct flips: the OR outcome changes
  EXPECT_FALSE(rs.begin()->holds());
  key.store(42);
  state.store(1);  // first disjunct flips instead
  EXPECT_FALSE(rs.begin()->holds());
  // A same-address value append after the clause is NOT deduped against
  // clause rows.
  EXPECT_TRUE(rs.append_value(&state, 1));
  EXPECT_EQ(rs.size(), 2u);
}

TEST(ReadSet, ClauseIterationSkipsContinuationRows) {
  ReadSet rs;
  tword a{1};
  tword b{2};
  tword c{3};
  const CmpTerm terms[3] = {
      CmpTerm{&a, nullptr, 9, Rel::EQ},
      CmpTerm{&b, nullptr, 9, Rel::EQ},
      CmpTerm{&c, nullptr, 9, Rel::EQ},
  };
  rs.append_clause(terms, 3, /*outcome=*/false);
  rs.append_value(&a, 1);
  EXPECT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs.rows(), 4u);
  std::size_t clauses = 0;
  for (auto it = rs.begin(); it != rs.end(); ++it) {
    ++clauses;
    EXPECT_TRUE(it->holds());
  }
  EXPECT_EQ(clauses, 2u);
}

TEST(ReadSet, ZeroTermClauseRecordsNothing) {
  // An empty OR is constantly false — vacuous, nothing to revalidate.
  ReadSet rs;
  rs.append_clause(nullptr, 0, /*outcome=*/false);
  EXPECT_TRUE(rs.empty());
}

// -- Buffer storage: rows are bump-appended into one growing buffer ---------

TEST(ReadSet, GrowthKeepsEveryRowAndClauseBoundary) {
  // Fill the first buffer to one row short, so a 3-term clause must take
  // the growth path with its continuation rows past the old capacity.
  ReadSet rs;
  std::vector<tword> words(ReadSet::kInitialRows + 8);
  for (std::size_t i = 0; i + 1 < ReadSet::kInitialRows; ++i) {
    words[i].store(static_cast<word_t>(i));
    ASSERT_TRUE(rs.append_value(&words[i], static_cast<word_t>(i)));
  }
  ASSERT_EQ(rs.capacity(), ReadSet::kInitialRows);
  tword& a = words[ReadSet::kInitialRows];
  tword& b = words[ReadSet::kInitialRows + 1];
  tword& c = words[ReadSet::kInitialRows + 2];
  const CmpTerm terms[3] = {
      CmpTerm{&a, nullptr, 9, Rel::EQ},
      CmpTerm{&b, nullptr, 9, Rel::EQ},
      CmpTerm{&c, nullptr, 9, Rel::EQ},
  };
  rs.append_clause(terms, 3, /*outcome=*/false);
  rs.append_cmp(&a, Rel::SGE, 0, /*outcome=*/true);
  EXPECT_GT(rs.capacity(), ReadSet::kInitialRows);
  EXPECT_EQ(rs.size(), ReadSet::kInitialRows + 1);
  EXPECT_EQ(rs.rows(), ReadSet::kInitialRows + 3);

  std::size_t i = 0;
  for (auto it = rs.begin(); it != rs.end(); ++it, ++i) {
    EXPECT_TRUE(it->holds()) << "clause " << i;
    if (i + 1 < ReadSet::kInitialRows) {
      EXPECT_EQ(it->addr(), &words[i]);
      EXPECT_EQ(it->count(), 1u);
    } else if (i + 1 == ReadSet::kInitialRows) {
      ASSERT_EQ(it->count(), 3u);  // the straddling clause, intact
      EXPECT_EQ(it->row(1).addr, &b);
      EXPECT_EQ(it->row(2).addr, &c);
      EXPECT_FALSE(it->expected());
    } else {
      EXPECT_EQ(it->addr(), &a);
      EXPECT_TRUE(it->semantic());
    }
  }
  EXPECT_EQ(i, ReadSet::kInitialRows + 1);
  b.store(9);  // flips the straddling clause's OR, and only that clause
  std::size_t failing = 0;
  for (const auto clause : rs) failing += clause.holds() ? 0 : 1;
  EXPECT_EQ(failing, 1u);
}

TEST(ReadSet, DedupWindowSpansGrowth) {
  // The window scans the rows just before the append; a growth between a
  // read and its re-read must not hide the earlier row.
  ReadSet rs;
  std::vector<tword> words(ReadSet::kInitialRows);
  for (std::size_t i = 0; i < ReadSet::kInitialRows; ++i) {
    ASSERT_TRUE(rs.append_value(&words[i], 0));
  }
  ASSERT_EQ(rs.rows(), rs.capacity());  // the next append grows
  tword x{1};
  EXPECT_TRUE(rs.append_value(&x, 1));
  EXPECT_GT(rs.capacity(), ReadSet::kInitialRows);
  EXPECT_FALSE(rs.append_value(&x, 1));
  EXPECT_FALSE(rs.append_value(&words[ReadSet::kInitialRows - 1], 0))
      << "a row copied by the growth is still inside the window";
  EXPECT_EQ(rs.size(), ReadSet::kInitialRows + 1);
}

TEST(ReadSet, ClearKeepsBufferAndReappendYieldsOnlyNewClauses) {
  ReadSet rs;
  std::vector<tword> words(3 * ReadSet::kInitialRows);
  for (auto& w : words) rs.append_value(&w, 0);
  const std::size_t grown = rs.capacity();
  ASSERT_GT(grown, ReadSet::kInitialRows);
  rs.clear();
  EXPECT_EQ(rs.capacity(), grown) << "clear() must keep the buffer";
  EXPECT_TRUE(rs.empty());
  EXPECT_EQ(rs.rows(), 0u);

  tword a{4};
  tword b{5};
  const CmpTerm terms[2] = {CmpTerm{&a, nullptr, 4, Rel::NEQ},
                            CmpTerm{&b, nullptr, 5, Rel::EQ}};
  EXPECT_TRUE(rs.append_value(&words[0], 0))
      << "pre-clear rows must not dedup a post-clear read";
  rs.append_clause(terms, 2, /*outcome=*/true);
  EXPECT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs.rows(), 3u);
  std::vector<const tword*> heads;
  for (const auto clause : rs) heads.push_back(clause.addr());
  EXPECT_EQ(heads, (std::vector<const tword*>{&words[0], &a}));
  EXPECT_EQ(rs.capacity(), grown);
}

TEST(ReadSet, ClearResets) {
  ReadSet rs;
  tword x{1};
  rs.append_value(&x, 1);
  rs.clear();
  EXPECT_TRUE(rs.empty());
  EXPECT_EQ(rs.size(), 0u);
  // Post-clear, the dedup window must not see pre-clear entries.
  EXPECT_TRUE(rs.append_value(&x, 1));
}

// -- The validation walk (first_failing) -----------------------------------

/// The walk's reference semantics: clause by clause through
/// Clause::holds(), counting the clauses visited up to and including the
/// first failing one.
const ReadEntry* first_failing_by_clause(const ReadSet& rs,
                                         std::size_t& visited) {
  visited = 0;
  for (const auto clause : rs) {
    ++visited;
    if (!clause.holds()) return &clause.row(0);
  }
  return nullptr;
}

TEST(ReadSet, FirstFailingMatchesClauseByClauseHolds) {
  // Random read-sets over a few words: value rows, cmp rows and cmp2 rows
  // under all ten relations, and 1-3-term clauses mixing immediate and
  // address-address terms, each recorded with its true outcome or, in
  // half the trials, one time in eight with the opposite one (a stale
  // value for a value row). Then memory is mutated. The walk must stop at
  // the same clause as the reference and call its callback once per
  // clause visited.
  const word_t pool[] = {
      0,
      1,
      2,
      to_word<std::int64_t>(-1),
      to_word<std::int64_t>(std::numeric_limits<std::int64_t>::min()),
      to_word<std::int64_t>(std::numeric_limits<std::int64_t>::max()),
  };
  constexpr std::size_t kPool = sizeof(pool) / sizeof(pool[0]);
  constexpr std::size_t kWords = 5;
  Rng rng(0xC1A05E5EEDULL);
  const auto any_value = [&] { return pool[rng.below(kPool)]; };
  const auto any_rel = [&] { return static_cast<Rel>(rng.below(10)); };
  std::size_t failed = 0;
  std::size_t held = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<tword> words(kWords);
    for (auto& w : words) w.store(any_value());
    const auto any_word = [&] { return &words[rng.below(kWords)]; };
    const bool honest = rng.percent(50);
    const auto stale = [&] { return !honest && rng.below(8) == 0; };
    const auto outcome = [&](bool now) { return stale() ? !now : now; };
    ReadSet rs;
    const auto clauses = rng.below(48);
    for (std::uint64_t c = 0; c < clauses; ++c) {
      switch (rng.below(4)) {
        case 0: {
          tword* w = any_word();
          rs.append_value(w, stale() ? any_value() : w->load());
          break;
        }
        case 1: {
          const CmpTerm t{any_word(), nullptr, any_value(), any_rel()};
          rs.append_cmp(t.addr, t.rel, t.operand, outcome(t.eval_now()));
          break;
        }
        case 2: {
          const CmpTerm t{any_word(), any_word(), 0, any_rel()};
          rs.append_cmp2(t.addr, t.rel, t.rhs_addr, outcome(t.eval_now()));
          break;
        }
        default: {
          CmpTerm terms[ReadSet::kMaxTerms];
          const auto n = 1 + rng.below(ReadSet::kMaxTerms);
          bool now = false;
          for (std::uint64_t i = 0; i < n; ++i) {
            terms[i] = CmpTerm{any_word(),
                               rng.below(3) == 0 ? any_word() : nullptr,
                               any_value(), any_rel()};
            now = now || terms[i].eval_now();
          }
          rs.append_clause(terms, n, outcome(now));
          break;
        }
      }
    }
    for (auto m = rng.below(3); m > 0; --m) any_word()->store(any_value());

    std::size_t visited = 0;
    const ReadEntry* expected = first_failing_by_clause(rs, visited);
    std::size_t calls = 0;
    const ReadEntry* got = rs.first_failing([&] { ++calls; });
    ASSERT_EQ(got, expected) << "trial " << trial;
    ASSERT_EQ(calls, visited) << "trial " << trial;
    ++(got != nullptr ? failed : held);
  }
  // Both verdicts are exercised, not just one.
  EXPECT_GT(failed, 1000u);
  EXPECT_GT(held, 500u);
}

TEST(ReadSet, FirstFailingReadsNoRowPastAFullBuffer) {
  // 1-row clauses up to the buffer's last row: the walk's 2-term shape
  // test must not read the row after a 1-row clause (ASan builds would
  // report the over-read).
  ReadSet rs;
  tword x{5};
  for (std::size_t i = 0; i < ReadSet::kInitialRows; ++i) {
    rs.append_cmp(&x, Rel::SGT, 0, /*outcome=*/true);
  }
  ASSERT_EQ(rs.rows(), rs.capacity());
  std::size_t calls = 0;
  EXPECT_EQ(rs.first_failing([&] { ++calls; }), nullptr);
  EXPECT_EQ(calls, ReadSet::kInitialRows);
}

}  // namespace
}  // namespace semstm

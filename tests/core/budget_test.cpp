// WorkBudget unit tests (core/budget.hpp): cap semantics, spec parsing,
// the taxonomy classification of BudgetExhausted, and the armed wall-clock
// deadline (DeadlineExceeded) used by the routed serving path.
#include "core/budget.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/timer.hpp"

namespace mts {
namespace {

TEST(WorkBudgetTest, DefaultIsUnlimited) {
  WorkBudget budget;
  EXPECT_FALSE(budget.limited());
  // Unlimited caps never throw, whatever the charge.
  budget.charge_edges_scanned(1'000'000'000ULL);
  budget.charge_lp_pivots(1'000'000'000ULL);
  budget.charge_spur_searches(1'000'000'000ULL);
  EXPECT_EQ(budget.edges_scanned, 1'000'000'000ULL);
}

TEST(WorkBudgetTest, ThrowsExactlyWhenACapIsExceeded) {
  WorkBudget budget;
  budget.max_lp_pivots = 10;
  EXPECT_TRUE(budget.limited());
  for (int i = 0; i < 10; ++i) budget.charge_lp_pivots(1);  // at the cap: fine
  EXPECT_THROW(budget.charge_lp_pivots(1), BudgetExhausted);
}

TEST(WorkBudgetTest, CapsAreIndependent) {
  WorkBudget budget;
  budget.max_edges_scanned = 5;
  budget.charge_lp_pivots(100);   // uncapped counters stay unlimited
  budget.charge_spur_searches(100);
  EXPECT_THROW(budget.charge_edges_scanned(6), BudgetExhausted);
}

TEST(WorkBudgetTest, ExhaustionMessageNamesCounterAndCap) {
  WorkBudget budget;
  budget.max_spur_searches = 3;
  try {
    budget.charge_spur_searches(4);
    FAIL() << "cap did not trigger";
  } catch (const BudgetExhausted& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spur_searches"), std::string::npos) << what;
    EXPECT_NE(what.find('3'), std::string::npos) << what;
  }
}

TEST(WorkBudgetTest, TaxonomyClassifiesExhaustion) {
  WorkBudget budget;
  budget.max_edges_scanned = 1;
  try {
    budget.charge_edges_scanned(2);
  } catch (...) {
    EXPECT_EQ(current_exception_taxonomy().rfind("budget-exhausted: ", 0), 0u);
  }
}

TEST(WorkBudgetTest, ParseAcceptsAnySubsetInAnyOrder) {
  const WorkBudget all = WorkBudget::parse("edges=100,pivots=20,spurs=3");
  EXPECT_EQ(all.max_edges_scanned, 100u);
  EXPECT_EQ(all.max_lp_pivots, 20u);
  EXPECT_EQ(all.max_spur_searches, 3u);

  const WorkBudget reordered = WorkBudget::parse("spurs=3,edges=100");
  EXPECT_EQ(reordered.max_edges_scanned, 100u);
  EXPECT_EQ(reordered.max_lp_pivots, 0u);
  EXPECT_EQ(reordered.max_spur_searches, 3u);

  const WorkBudget one = WorkBudget::parse("pivots=1");
  EXPECT_TRUE(one.limited());
  EXPECT_EQ(one.max_lp_pivots, 1u);
}

TEST(WorkBudgetTest, ParseRejectsUnknownKeysAndBadCounts) {
  EXPECT_THROW(WorkBudget::parse("edge=100"), InvalidInput);
  EXPECT_THROW(WorkBudget::parse("edges"), InvalidInput);
  EXPECT_THROW(WorkBudget::parse("edges=0"), InvalidInput);
  EXPECT_THROW(WorkBudget::parse("edges=-5"), InvalidInput);
  EXPECT_THROW(WorkBudget::parse("edges=many"), InvalidInput);
  EXPECT_THROW(WorkBudget::parse("edges=99999999999999999999999"), InvalidInput);
  EXPECT_THROW(WorkBudget::parse("spurs=18446744073709551616"), InvalidInput);
}

TEST(WorkBudgetTest, ArmedDeadlineMakesBudgetLimited) {
  const Stopwatch clock;
  WorkBudget budget;
  EXPECT_FALSE(budget.limited());
  budget.arm_deadline(&clock, clock.seconds() + 3600.0);
  // A deadline alone is enough to thread the budget into the hot path --
  // that is how engines pick up the check without any new plumbing.
  EXPECT_TRUE(budget.limited());
  budget.charge_edges_scanned(1'000'000ULL);  // far-future deadline: no throw
  EXPECT_FALSE(budget.deadline_expired());
}

TEST(WorkBudgetTest, ExpiredDeadlineThrowsWithinTheCheckInterval) {
  const Stopwatch clock;
  WorkBudget budget;
  budget.arm_deadline(&clock, clock.seconds());  // already expired
  EXPECT_TRUE(budget.deadline_expired());
  // The probe runs every kDeadlineCheckInterval charges, so a charge loop
  // must notice the expiry within one interval's worth of single charges.
  EXPECT_THROW(
      {
        for (std::size_t i = 0; i <= WorkBudget::kDeadlineCheckInterval; ++i) {
          budget.charge_edges_scanned(1);
        }
      },
      DeadlineExceeded);
}

TEST(WorkBudgetTest, TaxonomyClassifiesDeadlineBeforeBudget) {
  const Stopwatch clock;
  WorkBudget budget;
  budget.max_edges_scanned = 1;  // both caps would fire; deadline wins naming
  budget.arm_deadline(&clock, clock.seconds());
  try {
    for (std::size_t i = 0; i <= WorkBudget::kDeadlineCheckInterval; ++i) {
      budget.charge_edges_scanned(0);  // no work counted: only the clock trips
    }
    FAIL() << "expired deadline did not throw";
  } catch (...) {
    EXPECT_EQ(current_exception_taxonomy().rfind("deadline-exceeded: ", 0), 0u);
  }
}

}  // namespace
}  // namespace mts

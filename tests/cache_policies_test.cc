#include <gtest/gtest.h>

#include "cache/cost_based.h"
#include "cache/cost_model.h"
#include "cache/heat.h"
#include "cache/lru_k.h"
#include "cache/replacement.h"
#include "sim/simulator.h"

namespace memgoal::cache {
namespace {

TEST(FifoPolicyTest, EvictsInInsertionOrderIgnoringAccess) {
  auto policy = MakeFifoPolicy();
  policy->OnInsert(1);
  policy->OnInsert(2);
  policy->OnInsert(3);
  policy->OnAccess(1);  // must not rescue page 1
  EXPECT_EQ(policy->ChooseVictim(), std::optional<PageId>(1));
  policy->OnErase(1);
  EXPECT_EQ(policy->ChooseVictim(), std::optional<PageId>(2));
}

TEST(LruPolicyTest, AccessRescuesPage) {
  auto policy = MakeLruPolicy();
  policy->OnInsert(1);
  policy->OnInsert(2);
  policy->OnInsert(3);
  policy->OnAccess(1);
  EXPECT_EQ(policy->ChooseVictim(), std::optional<PageId>(2));
  policy->OnErase(2);
  policy->OnAccess(3);
  EXPECT_EQ(policy->ChooseVictim(), std::optional<PageId>(1));
}

TEST(LruPolicyTest, EmptyHasNoVictim) {
  auto policy = MakeLruPolicy();
  EXPECT_FALSE(policy->ChooseVictim().has_value());
  policy->OnInsert(1);
  policy->OnErase(1);
  EXPECT_FALSE(policy->ChooseVictim().has_value());
}

class LruKPolicyTest : public ::testing::Test {
 protected:
  LruKPolicyTest() : tracker_(2), policy_(&tracker_, &simulator_) {}

  void Access(PageId page, double time) {
    tracker_.RecordAccess(page, time);
    if (resident_.count(page)) {
      policy_.OnAccess(page);
    } else {
      policy_.OnInsert(page);
      resident_.insert(page);
    }
  }

  sim::Simulator simulator_;
  HeatTracker tracker_;
  LruKPolicy policy_;
  std::set<PageId> resident_;
};

TEST_F(LruKPolicyTest, PagesWithoutFullHistoryEvictFirst) {
  // Page 1: two accesses (full K history); page 2: one access, more recent.
  Access(1, 10.0);
  Access(1, 20.0);
  Access(2, 30.0);
  // Page 2 has infinite backward-K distance -> victim despite recency.
  EXPECT_EQ(policy_.ChooseVictim(), std::optional<PageId>(2));
}

TEST_F(LruKPolicyTest, FullHistoryOrderedByBackwardKTime) {
  Access(1, 10.0);
  Access(1, 100.0);  // t_K(1) = 10
  Access(2, 50.0);
  Access(2, 60.0);  // t_K(2) = 50
  EXPECT_EQ(policy_.ChooseVictim(), std::optional<PageId>(1));
  Access(1, 110.0);  // now t_K(1) = 100
  EXPECT_EQ(policy_.ChooseVictim(), std::optional<PageId>(2));
}

TEST_F(LruKPolicyTest, AmongPartialHistoryLeastRecentFirst) {
  Access(1, 10.0);
  Access(2, 20.0);
  EXPECT_EQ(policy_.ChooseVictim(), std::optional<PageId>(1));
}

TEST(KeepBenefitTest, LastCopyWorthMoreThanReplicated) {
  CostModel costs;
  const double replicated =
      KeepBenefit(costs, 1.0, 0.0, /*other_copy=*/true, /*home_local=*/true);
  const double last_copy =
      KeepBenefit(costs, 1.0, 0.0, /*other_copy=*/false, /*home_local=*/true);
  EXPECT_GT(last_copy, replicated);
}

TEST(KeepBenefitTest, RemoteHomeLastCopyWorthMost) {
  CostModel costs;
  const double local_home =
      KeepBenefit(costs, 1.0, 0.0, false, /*home_local=*/true);
  const double remote_home =
      KeepBenefit(costs, 1.0, 0.0, false, /*home_local=*/false);
  EXPECT_GT(remote_home, local_home);
}

TEST(KeepBenefitTest, ForeignHeatAddsAltruisticValue) {
  CostModel costs;
  const double selfish = KeepBenefit(costs, 1.0, 0.0, false, true);
  const double altruistic = KeepBenefit(costs, 1.0, 2.0, false, true);
  EXPECT_GT(altruistic, selfish);
  // Foreign heat is irrelevant while another copy exists.
  EXPECT_DOUBLE_EQ(KeepBenefit(costs, 1.0, 2.0, true, true),
                   KeepBenefit(costs, 1.0, 0.0, true, true));
}

TEST(KeepBenefitTest, ScalesWithHeat) {
  CostModel costs;
  EXPECT_DOUBLE_EQ(KeepBenefit(costs, 2.0, 0.0, true, true),
                   2.0 * KeepBenefit(costs, 1.0, 0.0, true, true));
}

TEST(CostBasedPolicyTest, EvictsLowestBenefit) {
  std::map<PageId, double> benefit = {{1, 5.0}, {2, 1.0}, {3, 3.0}};
  CostBasedPolicy policy([&](PageId p) { return benefit.at(p); });
  policy.OnInsert(1);
  policy.OnInsert(2);
  policy.OnInsert(3);
  EXPECT_EQ(policy.ChooseVictim(), std::optional<PageId>(2));
}

TEST(CostBasedPolicyTest, LazyRevalidationSeesFreshBenefits) {
  std::map<PageId, double> benefit = {{1, 5.0}, {2, 1.0}, {3, 3.0}};
  CostBasedPolicy policy([&](PageId p) { return benefit.at(p); });
  policy.OnInsert(1);
  policy.OnInsert(2);
  policy.OnInsert(3);
  // Page 2's benefit rises externally (e.g. became last copy) without any
  // touch; victim selection must re-evaluate and pick page 3 instead.
  benefit[2] = 100.0;
  EXPECT_EQ(policy.ChooseVictim(), std::optional<PageId>(3));
}

}  // namespace
}  // namespace memgoal::cache

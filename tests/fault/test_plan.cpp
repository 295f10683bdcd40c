/**
 * @file
 * FaultPlan unit tests: builder field mapping, schedule ordering,
 * validation and kind names.
 */
#include <gtest/gtest.h>

#include "fault/plan.hpp"

namespace octo::fault {
namespace {

using sim::fromMs;
using sim::fromUs;

TEST(FaultPlan, BuildersMapFields)
{
    FaultPlan plan;
    plan.pfKill(fromMs(1), 1)
        .pcieWidthDegrade(fromMs(2), 0, 2, 0.5)
        .queueStall(fromMs(3), 7, fromUs(40))
        .qpiDegrade(fromMs(4), 0.25)
        .irqDrop(fromMs(5), 3)
        .irqDelay(fromMs(6), fromUs(100));
    const auto evs = plan.events();
    ASSERT_EQ(evs.size(), 6u);

    EXPECT_EQ(evs[0].kind, FaultKind::PfKill);
    EXPECT_EQ(evs[0].target, 1);

    EXPECT_EQ(evs[1].kind, FaultKind::PcieWidthDegrade);
    EXPECT_EQ(evs[1].target, 0);
    EXPECT_EQ(evs[1].arg, 2);
    EXPECT_DOUBLE_EQ(evs[1].scale, 0.5);

    EXPECT_EQ(evs[2].kind, FaultKind::QueueStall);
    EXPECT_EQ(evs[2].target, 7);
    EXPECT_EQ(evs[2].duration, fromUs(40));

    EXPECT_DOUBLE_EQ(evs[3].scale, 0.25);
    EXPECT_EQ(evs[4].arg, 3);
    EXPECT_EQ(evs[5].duration, fromUs(100));
}

TEST(FaultPlan, EventsSortedByTimeStableOnTies)
{
    FaultPlan plan;
    plan.pfRecover(fromMs(9), 0)
        .pfKill(fromMs(1), 0)
        .qpiDegrade(fromMs(1), 0.5) // same tick as the kill
        .queueStall(fromMs(4), 0, fromUs(10));
    const auto evs = plan.events();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs[0].kind, FaultKind::PfKill);
    EXPECT_EQ(evs[1].kind, FaultKind::QpiDegrade); // insertion order kept
    EXPECT_EQ(evs[2].kind, FaultKind::QueueStall);
    EXPECT_EQ(evs[3].kind, FaultKind::PfRecover);
}

// ------------------------------------------------------------ validate()

namespace {

bool
hasError(const std::vector<std::string>& errs, const char* needle)
{
    for (const std::string& e : errs) {
        if (e.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

TEST(FaultPlanValidate, AcceptsWellFormedSchedules)
{
    FaultPlan plan;
    plan.pfKill(fromMs(1), 0)
        .pfRecover(fromMs(5), 0)
        .pfKill(fromMs(6), 0) // killing again after recovery is fine
        .pfRecover(fromMs(8), 0)
        .pfGrayDelay(fromMs(2), 1, 0.5, fromUs(300))
        .pfGrayRestore(fromMs(7), 1)
        .queueStall(fromMs(3), 3, fromUs(50));
    EXPECT_TRUE(plan.validate({2, 4, -1}).empty());
}

TEST(FaultPlanValidate, RejectsRecoverBeforeKill)
{
    FaultPlan plan;
    plan.pfRecover(fromMs(2), 0).pfKill(fromMs(5), 0);
    const auto errs = plan.validate();
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_TRUE(hasError(errs, "recover-before-kill"));
}

TEST(FaultPlanValidate, RejectsDuplicateKill)
{
    FaultPlan plan;
    plan.pfKill(fromMs(1), 1).pfKill(fromMs(2), 1).pfRecover(fromMs(3),
                                                             1);
    const auto errs = plan.validate();
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_TRUE(hasError(errs, "duplicate kill"));
}

TEST(FaultPlanValidate, ValidationWalksScheduleOrderNotInsertionOrder)
{
    // Authored backwards, but the schedule is kill@1ms, recover@2ms —
    // valid. The walker must sort first, like the injector replays.
    FaultPlan plan;
    plan.pfRecover(fromMs(2), 0).pfKill(fromMs(1), 0);
    EXPECT_TRUE(plan.validate().empty());
}

TEST(FaultPlanValidate, RejectsNonexistentTargets)
{
    FaultPlan plan;
    plan.pfKill(fromMs(1), 5)
        .queueStall(fromMs(2), 9, fromUs(10))
        .nvmeDoorbellStuck(fromMs(3), 4, fromUs(10))
        .pfRecover(fromMs(4), -1);
    const auto errs = plan.validate({2, 8, 2});
    ASSERT_EQ(errs.size(), 4u);
    EXPECT_TRUE(hasError(errs, "nonexistent PF"));
    EXPECT_TRUE(hasError(errs, "nonexistent queue"));
    EXPECT_TRUE(hasError(errs, "nonexistent NVMe SQ"));
}

TEST(FaultPlanValidate, UnknownPopulationSkipsRangeChecksOnly)
{
    // Default spec: counts unknown (-1) — range checks are skipped,
    // but a negative index is always nonsense.
    FaultPlan plan;
    plan.pfKill(fromMs(1), 63).pfRecover(fromMs(2), 63);
    EXPECT_TRUE(plan.validate().empty());

    FaultPlan neg;
    neg.queueStall(fromMs(1), -2, fromUs(10));
    EXPECT_TRUE(hasError(neg.validate(), "nonexistent queue"));
}

TEST(FaultPlanValidate, RejectsOutOfDomainParameters)
{
    FaultPlan plan;
    plan.pfGrayDelay(fromMs(1), 0, 1.5, fromUs(100))
        .pfGrayDrop(fromMs(2), 0, 0.0)
        .pcieWidthDegrade(fromMs(3), 0, 0)
        .qpiDegrade(fromMs(4), 2.0);
    const auto errs = plan.validate({2, -1, -1});
    ASSERT_EQ(errs.size(), 4u);
    EXPECT_TRUE(hasError(errs, "gray probability"));
    EXPECT_TRUE(hasError(errs, "retrain width"));
    EXPECT_TRUE(hasError(errs, "QPI scale"));
}

TEST(FaultPlan, KindNamesAreUniqueAndNonNull)
{
    for (int i = 0; i < kFaultKindCount; ++i) {
        const char* name = kindName(static_cast<FaultKind>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "unknown");
        for (int j = 0; j < i; ++j)
            EXPECT_STRNE(name, kindName(static_cast<FaultKind>(j)));
    }
}

} // namespace
} // namespace octo::fault

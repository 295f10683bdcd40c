/**
 * @file
 * Campaign-builder tests: the declarative scenarios emit exactly the
 * schedules they promise — correlated dual-PF windows overlap, storms
 * are seed-deterministic Poisson mixes that draw every fault family
 * their declared target population supports and stay inside it, gray
 * episodes always heal — and every generated plan passes
 * FaultPlan::validate() against its own TargetSpec.
 */
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "chaos/campaign.hpp"
#include "fault/plan.hpp"

namespace octo::chaos {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using sim::fromMs;
using sim::fromUs;

TEST(CorrelatedDualPf, EmitsOverlappingDeadWindows)
{
    DualPfSpec spec;
    spec.firstKill = fromMs(5);
    spec.stagger = fromMs(3);
    spec.overlap = fromMs(4);
    spec.recoverStagger = fromMs(2);
    const FaultPlan plan = correlatedDualPf(spec);
    const auto evs = plan.events();
    ASSERT_EQ(evs.size(), 4u);

    EXPECT_EQ(evs[0].kind, FaultKind::PfKill);
    EXPECT_EQ(evs[0].target, 0);
    EXPECT_EQ(evs[0].at, fromMs(5));
    EXPECT_EQ(evs[1].kind, FaultKind::PfKill);
    EXPECT_EQ(evs[1].target, 1);
    EXPECT_EQ(evs[1].at, fromMs(8));
    // The both-dead window: second kill precedes the first recovery.
    EXPECT_EQ(evs[2].kind, FaultKind::PfRecover);
    EXPECT_EQ(evs[2].target, 0);
    EXPECT_EQ(evs[2].at, fromMs(12));
    EXPECT_GT(evs[2].at, evs[1].at);
    EXPECT_EQ(evs[3].kind, FaultKind::PfRecover);
    EXPECT_EQ(evs[3].target, 1);
    EXPECT_EQ(evs[3].at, fromMs(14));

    EXPECT_TRUE(plan.validate({2, -1, -1}).empty());
}

TEST(GrayEpisode, AppliesAndAlwaysHeals)
{
    FaultPlan plan;
    grayEpisode(plan, fromMs(10), fromMs(30), 1, 0.5, fromUs(400), 0.3);
    const auto evs = plan.events();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].kind, FaultKind::PfGrayDelay);
    EXPECT_EQ(evs[1].kind, FaultKind::PfGrayDrop);
    EXPECT_EQ(evs[2].kind, FaultKind::PfGrayRestore);
    EXPECT_EQ(evs[2].at, fromMs(30));
    EXPECT_TRUE(plan.validate({2, -1, -1}).empty());

    // Delay-only and drop-only variants skip the disabled half.
    FaultPlan delay_only;
    grayEpisode(delay_only, fromMs(1), fromMs(2), 0, 0.5, fromUs(100),
                0.0);
    EXPECT_EQ(delay_only.size(), 2u);
    FaultPlan drop_only;
    grayEpisode(drop_only, fromMs(1), fromMs(2), 0, 0.0, 0, 0.2);
    EXPECT_EQ(drop_only.size(), 2u);
}

TEST(Storm, SeedDeterministicAndValidates)
{
    StormSpec spec;
    spec.seed = 42;
    spec.horizon = fromMs(60);
    spec.targets = {2, 8, 2};
    const FaultPlan a = storm(spec);
    const FaultPlan b = storm(spec);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    const auto ea = a.events();
    const auto eb = b.events();
    for (std::size_t i = 0; i < ea.size(); ++i)
        EXPECT_TRUE(ea[i] == eb[i]) << "event " << i << " diverged";

    spec.seed = 43;
    const FaultPlan c = storm(spec);
    EXPECT_FALSE(ea.size() == c.size() &&
                 std::equal(ea.begin(), ea.end(), c.events().begin()))
        << "different seeds produced identical storms";

    // mustValidate() already ran inside storm(); re-check explicitly.
    EXPECT_TRUE(a.validate(spec.targets).empty());
}

TEST(Storm, EveryFaultHealsInsideTheHorizon)
{
    StormSpec spec;
    spec.seed = 7;
    spec.horizon = fromMs(50);
    spec.intensity = 2.0;
    spec.targets = {2, 8, 2};
    const FaultPlan plan = storm(spec);
    int open_pf = 0, open_gray = 0, open_qpi = 0, open_link = 0,
        open_irq = 0;
    for (const auto& ev : plan.events()) {
        EXPECT_LT(ev.at, spec.horizon);
        EXPECT_LE(ev.at + ev.duration, spec.horizon)
            << "a stall outlives the horizon";
        switch (ev.kind) {
          case FaultKind::PfKill: ++open_pf; break;
          case FaultKind::PfRecover: --open_pf; break;
          case FaultKind::PcieWidthDegrade: ++open_pf; break;
          case FaultKind::PcieRestore: --open_pf; break;
          case FaultKind::PfGrayDelay:
          case FaultKind::PfGrayDrop: ++open_gray; break;
          case FaultKind::PfGrayRestore: --open_gray; break;
          case FaultKind::QpiDegrade: ++open_qpi; break;
          case FaultKind::QpiRestore: --open_qpi; break;
          case FaultKind::PcieLinkDown: ++open_link; break;
          case FaultKind::PcieLinkUp: --open_link; break;
          case FaultKind::IrqDrop:
          case FaultKind::IrqDelay: ++open_irq; break;
          case FaultKind::IrqRestore: --open_irq; break;
          default: break;
        }
    }
    EXPECT_EQ(open_pf, 0) << "an opened PF episode never healed";
    EXPECT_EQ(open_gray, 0) << "an opened gray episode never healed";
    EXPECT_EQ(open_qpi, 0) << "an opened QPI episode never healed";
    EXPECT_EQ(open_link, 0) << "a silent link flap never came back up";
    EXPECT_EQ(open_irq, 0) << "an interrupt fault was never restored";
}

TEST(Storm, DrawsEveryFamilyItsTargetsSupport)
{
    // With PFs and queues declared, the storm is the one generator for
    // every NIC, QPI and interrupt fault family the injector replays.
    std::set<std::string> seen;
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
        for (double intensity : {1.0, 4.0}) {
            StormSpec spec;
            spec.seed = seed;
            spec.intensity = intensity;
            spec.targets = {2, 8, 2};
            const FaultPlan plan = storm(spec);
            EXPECT_TRUE(plan.validate(spec.targets).empty())
                << "seed " << seed << " intensity " << intensity;
            for (const auto& ev : plan.events()) {
                if (ev.kind == FaultKind::PcieWidthDegrade) {
                    if (ev.scale < 1.0)
                        seen.insert("pcie_width_degrade.gen");
                    continue;
                }
                seen.insert(fault::kindName(ev.kind));
            }
        }
    }
    for (const char* want :
         {"pf_kill", "pcie_width_degrade.gen", "pcie_link_down",
          "queue_stall", "qpi_degrade", "irq_drop", "irq_delay",
          "pf_gray_delay", "pf_gray_drop"})
        EXPECT_EQ(seen.count(want), 1u) << want << " never drawn";
}

TEST(Storm, RespectsTargetPopulation)
{
    // The storm draws no NVMe faults, even with SQs declared; all
    // indices stay inside the declared counts.
    StormSpec spec;
    spec.seed = 11;
    spec.targets = {2, 4, 2};
    const FaultPlan plan = storm(spec);
    ASSERT_FALSE(plan.empty());
    for (const auto& ev : plan.events()) {
        EXPECT_NE(ev.kind, FaultKind::NvmeDoorbellStuck);
        EXPECT_NE(ev.kind, FaultKind::NvmeCqStall);
        if (ev.kind == FaultKind::QueueStall) {
            EXPECT_LT(ev.target, 4);
        }
    }
}

TEST(Storm, IntensityScalesArrivals)
{
    StormSpec calm;
    calm.seed = 5;
    calm.intensity = 0.5;
    StormSpec fierce = calm;
    fierce.intensity = 4.0;
    EXPECT_GT(storm(fierce).size(), storm(calm).size());
}

} // namespace
} // namespace octo::chaos

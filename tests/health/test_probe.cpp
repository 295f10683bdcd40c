/**
 * @file
 * Queue-plane probe tests: `QueuePlane::probe(pf)` posts one control
 * descriptor through a queue bound to the PF and reports whether its
 * completion came back clean. The differential prober times these
 * round trips; here the verdict itself is checked on the Ioctopus
 * testbed, on the kernel stack (NetStack) and on the polled datapath
 * (whose probe reaps its own completion: a polled queue raises no Tx
 * interrupt, and nothing else polls an idle port).
 */
#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "sim/task.hpp"

namespace octo::health {
namespace {

using sim::fromMs;

/** Run one probe through PF @p pf to its verdict. The wait outlasts
 *  the plane's watchdog, so a completion nobody reaps reads false. */
bool
probeOnce(core::Testbed& tb, int pf)
{
    bool ok = false;
    auto t = sim::spawn([&]() -> sim::Task<> {
        ok = co_await tb.serverPlane().probe(pf);
    });
    tb.runFor(2 * nic::QueuePlane::kDrainWatchdog);
    EXPECT_TRUE(t.done()) << "probe through PF " << pf << " never ended";
    return ok;
}

void
expectProbeSeesLiveAndKilledPfs(bool poll)
{
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Ioctopus;
    cfg.bypass = poll;
    core::Testbed tb(cfg);
    tb.runFor(fromMs(1));

    EXPECT_TRUE(probeOnce(tb, 0)) << "healthy PF0 failed its probe";
    EXPECT_TRUE(probeOnce(tb, 1)) << "healthy PF1 failed its probe";

    tb.serverNic().setPfLink(1, false);
    EXPECT_FALSE(probeOnce(tb, 1)) << "a killed PF passed its probe";
    EXPECT_TRUE(probeOnce(tb, 0)) << "the surviving PF failed its probe";
}

TEST(QueueProbe, NetStackProbePassesLivePfAndFailsKilledPf)
{
    expectProbeSeesLiveAndKilledPfs(false);
}

TEST(QueueProbe, PollProbePassesLivePfAndFailsKilledPf)
{
    expectProbeSeesLiveAndKilledPfs(true);
}

} // namespace
} // namespace octo::health

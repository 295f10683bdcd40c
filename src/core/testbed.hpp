/**
 * @file
 * Experiment testbed: two simulated hosts (client and server) connected
 * back-to-back by a 100 GbE wire, mirroring the paper's setup (§5), with
 * the evaluated server configurations as presets:
 *
 *  - **Local**:   standard firmware; the workload runs on the NIC's
 *                 socket. No NUDMA.
 *  - **Remote**:  standard firmware; the workload runs on the other
 *                 socket. Every DMA crosses the interconnect (NUDMA).
 *  - **Ioctopus**: octo firmware; one PF per socket unified into a
 *                 single netdev with IOctoRFS steering. NUDMA-free
 *                 regardless of where the workload runs.
 *  - **TwoNics**: the §2.5 baseline — two independent netdevs, one per
 *                 socket; flows are pinned to a device for life.
 *
 * The server NIC always has the bifurcated x16 -> 2x8 form factor; the
 * client NIC is a plain x16 device local to the client workload, so the
 * client side never contributes NU(D)MA effects.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accmon/monitor.hpp"
#include "accmon/scheme.hpp"
#include "bypass/plane.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "health/monitor.hpp"
#include "health/prober.hpp"
#include "nic/device.hpp"
#include "nic/wire.hpp"
#include "os/netstack.hpp"
#include "os/socket.hpp"
#include "os/thread.hpp"
#include "sim/simulator.hpp"
#include "topo/calibration.hpp"
#include "topo/machine.hpp"

namespace octo::obs {
class Hub;
}

namespace octo::core {

/** Server NIC / driver configuration under test. */
enum class ServerMode
{
    Local,
    Remote,
    Ioctopus,
    TwoNics,
    /** §2.5 bonding/teaming baseline: both PFs aggregated into one
     *  logical link by the *switch* (EtherChannel / 802.3ad). The
     *  switch hashes each flow to a member link with no knowledge of
     *  where the consuming thread runs, so roughly half the flows land
     *  on the remote PF whatever the OS does — there is no ARFS-like
     *  mechanism on the switch side. */
    Bonded,
};

/** Human-readable preset name (figure legends). */
const char* modeName(ServerMode m);

/** Full experiment configuration. */
struct TestbedConfig
{
    ServerMode mode = ServerMode::Ioctopus;
    topo::Calibration cal;
    bool serverDdio = true; ///< Fig. 9 "nd" runs disable this.
    bool clientDdio = true;
    sim::Tick rxCoalesce = sim::fromUs(10); ///< 0 for latency runs.
    /** Rx descriptor-ring entries per queue. Sized so the aggregate
     *  flow-control windows of the connections sharing a queue fit
     *  without loss (the back-to-back testbed never drops). */
    int rxRingEntries = 4096;

    /** Tx rings per core (Ioctopus mode). The first ring per core is
     *  the XPS target and the only Rx/ARFS-visible one; extra rings
     *  are Tx-only spares on the same PF. With >1 the per-core ring
     *  numbering diverges from the monitor's group-slot numbering, so
     *  health-aware queueForCore() overrides individual posts instead
     *  of riding the group rebind (the `net_tx_queue_overrides`
     *  counter becomes nonzero under degradation). */
    int txRingsPerCore = 1;

    os::StackConfig stack;

    /** Fault schedule replayed against the *server* side (NIC, stack 0,
     *  machine). A non-empty plan also turns on loss recovery: the
     *  retry worker is enabled on both hosts' stacks, and Ioctopus mode
     *  additionally arms team-driver PF failover. */
    fault::FaultPlan faults;

    /** Attach a HealthMonitor to the server team device (Ioctopus mode
     *  only): PF sickness — degraded width/gen, stalls, link loss — is
     *  answered with weighted flow re-steering instead of the plain
     *  driver's alive-or-dead failover. */
    bool healthMonitor = false;

    /** Attach a DifferentialProber next to the monitor (requires
     *  healthMonitor): gray-failure detection by sibling-RTT
     *  comparison, feeding external demotions into the monitor. */
    bool diffProber = false;

    /** Kernel-bypass presets (`local-poll` / `remote-poll` /
     *  `ioctopus-poll`): replace the NetStack on *both* hosts with a
     *  bypass::PollPlane — per-core polled queues over the very same
     *  NIC/PF/queue layout the interrupt presets build, no softirq, no
     *  sockets. Only meaningful for Local / Remote / Ioctopus modes. */
    bool bypass = false;

    /** Polled-datapath tunables (burst size, mempool headroom). */
    bypass::BypassConfig bypassCfg;

    /** Attach a region-based access monitor (accmon::AccessMonitor) to
     *  the *server* NIC: every classified Rx frame feeds the bounded
     *  region map, snapshots/instruments export through the hub. Pure
     *  observation unless accmonSchemes is also set. Works with every
     *  preset, kernel or -poll. */
    bool accessMonitor = false;

    /** Also drive accmon::defaultSchemes() against the server plane
     *  (requires accessMonitor): hot flows are promoted to DMA-local
     *  queues, idle placements demoted, the table capped. When a
     *  HealthMonitor is attached too, schemes stand down while any PF
     *  is non-Healthy (reactive verdicts win the plane). */
    bool accmonSchemes = false;

    /** Observability hub (metrics + tracing). Attached to the simulator
     *  before any component is built, so every layer registers its
     *  instruments. Null (the default) keeps observability fully off. */
    obs::Hub* hub = nullptr;
};

/** A connected TCP/UDP endpoint pair plus thread contexts. */
struct TcpPair
{
    os::ThreadCtx serverCtx;
    os::ThreadCtx clientCtx;
    os::Socket* serverSock;
    os::Socket* clientSock;
    os::NetStack* serverStack;
    os::NetStack* clientStack;
};

/**
 * The two-host experiment testbed.
 */
class Testbed
{
  public:
    static constexpr int kNicNode = 0;       ///< Socket PF0 attaches to.
    static constexpr std::uint32_t kServerIp = 20;
    static constexpr std::uint32_t kServerIp2 = 21; ///< TwoNics second dev.
    static constexpr std::uint32_t kClientIp = 10;

    explicit Testbed(const TestbedConfig& cfg);
    ~Testbed();

    Testbed(const Testbed&) = delete;
    Testbed& operator=(const Testbed&) = delete;

    sim::Simulator& sim() { return sim_; }
    const TestbedConfig& config() const { return cfg_; }

    topo::Machine& server() { return *server_; }
    topo::Machine& client() { return *client_; }
    nic::NicDevice& serverNic() { return *serverNic_; }
    nic::NicDevice& clientNic() { return *clientNic_; }

    /** Server stacks: one (Local/Remote/Ioctopus) or two (TwoNics). */
    os::NetStack& serverStack(int idx = 0) { return *serverStacks_.at(idx); }
    int serverStackCount() const
    {
        return static_cast<int>(serverStacks_.size());
    }
    os::NetStack& clientStack() { return *clientStack_; }

    /** The polled planes (bypass presets only; null otherwise). */
    bypass::PollPlane* serverPoll() { return serverPoll_.get(); }
    bypass::PollPlane* clientPoll() { return clientPoll_.get(); }

    /** The server NIC's steerable queue plane: the polled plane under
     *  bypass, else server stack 0. What the health monitor and the
     *  scheme engine steer through. */
    nic::QueuePlane& serverPlane();

    /** The fault injector; null when the config's plan is empty. */
    fault::Injector* injector() { return injector_.get(); }

    /** The server-side health monitor; null unless configured. */
    health::HealthMonitor* monitor() { return monitor_.get(); }

    /** The differential prober; null unless configured. */
    health::DifferentialProber* prober() { return prober_.get(); }

    /** The server-side access monitor; null unless configured. */
    accmon::AccessMonitor* accessMonitor() { return accmon_.get(); }

    /** The scheme engine; null unless accmonSchemes was configured. */
    accmon::SchemeEngine* schemeEngine() { return schemeEngine_.get(); }

    /**
     * The node the server workload should run on for this preset:
     * the NIC's node for Local, the other one for Remote. For Ioctopus
     * the choice is free; Remote's node is returned so that
     * ioct-vs-remote comparisons run the workload in the same place.
     */
    int
    workNode() const
    {
        return cfg_.mode == ServerMode::Local ? kNicNode : 1;
    }

    /** A server-side thread context pinned to core @p local of
     *  @p node. */
    os::ThreadCtx serverThread(int node, int local);

    /** A client-side thread context. Node 0 (the client NIC's node) is
     *  the default no-NU(D)MA placement; Fig. 9's "rr" runs put the
     *  client thread on node 1 to make the client side remote too. */
    os::ThreadCtx clientThread(int local, int node = 0);

    /**
     * Establish a connected socket pair between a server thread and a
     * client thread. @p window == 0 uses the stack default.
     */
    TcpPair connect(os::ThreadCtx& server_t, os::ThreadCtx& client_t,
                    bool tso = true, std::uint64_t window = 0);

    /** Advance simulated time by @p t. */
    void
    runFor(sim::Tick t)
    {
        sim_.runUntil(sim_.now() + t);
    }

  private:
    void buildServerSide();
    void buildClientSide();
    void buildServerBypass(pcie::PciFunction& pf0,
                           pcie::PciFunction& pf1);

    TestbedConfig cfg_;
    sim::Simulator sim_;

    std::unique_ptr<topo::Machine> server_;
    std::unique_ptr<topo::Machine> client_;
    std::unique_ptr<nic::NicDevice> serverNic_;
    std::unique_ptr<nic::NicDevice> clientNic_;
    std::unique_ptr<nic::Wire> wire_;
    std::vector<std::unique_ptr<os::NetStack>> serverStacks_;
    std::unique_ptr<os::NetStack> clientStack_;
    std::unique_ptr<bypass::PollPlane> serverPoll_;
    std::unique_ptr<bypass::PollPlane> clientPoll_;
    std::unique_ptr<fault::Injector> injector_;
    std::unique_ptr<health::HealthMonitor> monitor_;
    std::unique_ptr<health::DifferentialProber> prober_;
    std::unique_ptr<accmon::AccessMonitor> accmon_;
    std::unique_ptr<accmon::SchemeEngine> schemeEngine_;

    std::uint16_t nextPort_ = 2000;
};

} // namespace octo::core

#include "core/testbed.hpp"

#include <cassert>

namespace octo::core {

const char*
modeName(ServerMode m)
{
    switch (m) {
      case ServerMode::Local:
        return "local";
      case ServerMode::Remote:
        return "remote";
      case ServerMode::Ioctopus:
        return "ioctopus";
      case ServerMode::TwoNics:
        return "two-nics";
      case ServerMode::Bonded:
        return "bonded";
    }
    return "?";
}

std::string
Testbed::presetName() const
{
    std::string name = modeName(cfg_.mode);
    if (cfg_.bypass)
        name += "-poll";
    return name;
}

Testbed::Testbed(const TestbedConfig& cfg) : cfg_(cfg)
{
    // The polled presets mirror only the single-netdev modes; the
    // two-netdev baselines have no bypass counterpart.
    assert(!cfg_.bypass || cfg_.mode == ServerMode::Local ||
           cfg_.mode == ServerMode::Remote ||
           cfg_.mode == ServerMode::Ioctopus);

    // Attach the observability hub before any component exists:
    // instruments are registered (and pointers cached) at construction.
    if (cfg_.hub != nullptr) {
        sim_.setHub(cfg_.hub);
        // Event-core health counters (DESIGN.md §11): negative-delay
        // clamps surface model bugs, pool growths / cold callbacks
        // surface allocation on what should be the zero-alloc path.
        obs::MetricRegistry& reg = cfg_.hub->metrics();
        sim::Simulator* sp = &sim_;
        reg.counterFn("sim_events_total", {},
                      [sp] { return sp->eventsProcessed(); });
        reg.counterFn("sim_negative_delay_total", {},
                      [sp] { return sp->negativeDelays(); });
        reg.counterFn("sim_pool_growths_total", {},
                      [sp] { return sp->poolGrowths(); });
        reg.counterFn("sim_cold_callbacks_total", {},
                      [sp] { return sp->coldCallbacks(); });
    }

    // A fault plan implies frames can die inside the NIC, so the
    // RTO-style retry worker must run on both hosts or lost frames
    // would leak window credits forever.
    if (!cfg_.faults.empty() && cfg_.stack.retryTimeout == 0)
        cfg_.stack.retryTimeout = sim::fromMs(2);

    topo::Calibration server_cal = cfg_.cal;
    server_cal.ddioEnabled = cfg_.serverDdio;
    topo::Calibration client_cal = cfg_.cal;
    client_cal.ddioEnabled = cfg_.clientDdio;

    server_ = std::make_unique<topo::Machine>(sim_, server_cal, "server");
    client_ = std::make_unique<topo::Machine>(sim_, client_cal, "client");
    wire_ = std::make_unique<nic::Wire>(sim_, cfg_.cal.wireGbps,
                                        cfg_.cal.wireLatency);

    buildServerSide();
    buildClientSide();

    wire_->attach(serverNic_.get(), clientNic_.get());
    serverNic_->connect(*wire_);
    clientNic_->connect(*wire_);
    serverNic_->start();
    clientNic_->start();

    if (!cfg_.faults.empty()) {
        injector_ = std::make_unique<fault::Injector>(
            sim_,
            fault::Targets{serverNic_.get(),
                           serverStacks_.empty()
                               ? nullptr
                               : serverStacks_.at(0).get(),
                           server_.get()},
            cfg_.faults);
        injector_->start();
    }

    // Health monitoring rides on the steerable plane: only the Ioctopus
    // preset has one netdev spanning both PFs to re-steer between. Both
    // NIC datapaths share one queue plane, so the monitor judges
    // busy-polled queues exactly like interrupt-driven ones.
    if (cfg_.healthMonitor && cfg_.mode == ServerMode::Ioctopus) {
        monitor_ = std::make_unique<health::HealthMonitor>(serverPlane(),
                                                           cfg_.health);
        monitor_->start();
        if (cfg_.diffProber) {
            prober_ = std::make_unique<health::DifferentialProber>(
                *monitor_, cfg_.prober);
            prober_->start();
        }
    }

    // The region-based access monitor observes the server NIC's offered
    // demand on every preset; the proactive scheme engine additionally
    // needs a steerable plane to place flows on. Built after the health
    // monitor so the standoff predicate can consult its verdicts.
    if (cfg_.accessMonitor) {
        accmon_ = std::make_unique<accmon::AccessMonitor>(
            sim_, cfg_.hub, serverNic_->name(), cfg_.accmonCfg);
        if (cfg_.accmonSchemes) {
            schemeEngine_ = std::make_unique<accmon::SchemeEngine>(
                serverPlane(),
                cfg_.schemes.empty() ? accmon::defaultSchemes()
                                     : cfg_.schemes,
                cfg_.hub, serverNic_->name());
            if (health::HealthMonitor* hm = monitor_.get()) {
                const int pfs = serverNic_->functionCount();
                const int qs = serverNic_->queueCount();
                schemeEngine_->setStandoff([hm, pfs, qs] {
                    for (int p = 0; p < pfs; ++p) {
                        if (hm->state(p) != health::HealthState::Healthy)
                            return true;
                    }
                    for (int q = 0; q < qs; ++q) {
                        if (hm->queueSteeredAway(q))
                            return true;
                    }
                    return false;
                });
            }
            accmon_->setEngine(schemeEngine_.get());
        }
        serverNic_->setAccessMonitor(accmon_.get());
        accmon_->start();
    }
}

Testbed::~Testbed() = default;

nic::QueuePlane&
Testbed::serverPlane()
{
    if (serverPoll_ != nullptr)
        return *serverPoll_;
    return *serverStacks_.at(0);
}

void
Testbed::buildServerSide()
{
    serverNic_ =
        std::make_unique<nic::NicDevice>(*server_, "octoNIC");
    serverNic_->setRxCoalesce(cfg_.rxCoalesce);

    // Bifurcated x16: one x8 endpoint per socket (ConnectX-5 Socket
    // Direct form factor, §4.1). PF1 exists in every mode; standard
    // firmware simply may not use it.
    pcie::PciFunction& pf0 = serverNic_->addFunction(0, 8);
    pcie::PciFunction& pf1 = serverNic_->addFunction(1, 8);

    const int per_node = cfg_.cal.coresPerNode;
    const int total = cfg_.cal.nodes * per_node;

    if (cfg_.bypass) {
        buildServerBypass(pf0, pf1);
        return;
    }

    switch (cfg_.mode) {
      case ServerMode::Local:
      case ServerMode::Remote: {
        // One netdev over PF0. A descriptor ring per core, interrupts on
        // the ring's core; all DMA flows through PF0 wherever the ring
        // lives — DMA to node 1 rings is the NUDMA path.
        auto stack = std::make_unique<os::NetStack>(*server_, *serverNic_,
                                                    cfg_.stack);
        std::vector<int> qids;
        for (int c = 0; c < total; ++c) {
            const int qid = serverNic_->addQueue(server_->core(c), pf0,
                                                 cfg_.rxRingEntries);
            stack->mapCoreToQueue(c, qid);
            qids.push_back(qid);
        }
        serverNic_->addNetdev(kServerIp, qids);
        serverStacks_.push_back(std::move(stack));
        break;
      }
      case ServerMode::Ioctopus: {
        // The octoNIC: one logical netdev spanning both PFs. Each ring
        // is bound to the PF local to its core's node, so IOctoRFS
        // steering to a ring implies DMA through the local endpoint.
        // The team driver treats the PFs like bonding members, so it
        // also gets bonding-style failover between them.
        os::StackConfig scfg = cfg_.stack;
        scfg.teamFailover = true;
        auto stack = std::make_unique<os::NetStack>(*server_, *serverNic_,
                                                    scfg);
        std::vector<int> qids;
        for (int c = 0; c < total; ++c) {
            topo::Core& core = server_->core(c);
            pcie::PciFunction& pf = core.node() == 0 ? pf0 : pf1;
            const int qid = serverNic_->addQueue(core, pf,
                                                 cfg_.rxRingEntries);
            stack->mapCoreToQueue(c, qid);
            qids.push_back(qid);
            // Extra Tx-only rings: same core and PF, not part of the
            // netdev's Rx set, so the receive path is untouched while
            // health-aware XPS gets per-core alternatives to pick from.
            for (int r = 1; r < cfg_.txRingsPerCore; ++r)
                serverNic_->addQueue(core, pf, cfg_.rxRingEntries);
        }
        serverNic_->addNetdev(kServerIp, qids);
        serverStacks_.push_back(std::move(stack));
        break;
      }
      case ServerMode::TwoNics: {
        // §2.5 baseline: two independent netdevs, one per socket. A
        // second NetStack would fight over the single NicSink slot, so
        // both netdevs share one stack object but advertise separate
        // addresses and queue sets; sockets stay pinned to the netdev
        // they were created on because XPS maps each core only to its
        // own node's queues.
        auto stack = std::make_unique<os::NetStack>(*server_, *serverNic_,
                                                    cfg_.stack);
        std::vector<int> qids0;
        std::vector<int> qids1;
        for (int c = 0; c < total; ++c) {
            topo::Core& core = server_->core(c);
            pcie::PciFunction& pf = core.node() == 0 ? pf0 : pf1;
            const int qid = serverNic_->addQueue(core, pf,
                                                 cfg_.rxRingEntries);
            stack->mapCoreToQueue(c, qid);
            stack->setQueueDomain(qid, core.node());
            (core.node() == 0 ? qids0 : qids1).push_back(qid);
        }
        serverNic_->addNetdev(kServerIp, qids0);
        serverNic_->addNetdev(kServerIp2, qids1);
        serverStacks_.push_back(std::move(stack));
        break;
      }
      case ServerMode::Bonded: {
        // §2.5 bonding baseline: two member netdevs under one address,
        // aggregated by the switch. Each member has a full per-core
        // queue set behind its own PF; the switch hashes flows to
        // members with no thread awareness, so ARFS can localize a
        // flow's interrupts/rings but never its PF.
        auto stack = std::make_unique<os::NetStack>(*server_, *serverNic_,
                                                    cfg_.stack);
        for (int member = 0; member < 2; ++member) {
            pcie::PciFunction& pf = member == 0 ? pf0 : pf1;
            std::vector<int> qids;
            for (int c = 0; c < total; ++c) {
                topo::Core& core = server_->core(c);
                const int qid = serverNic_->addQueue(core, pf,
                                                     cfg_.rxRingEntries);
                stack->mapCoreToQueueInDomain(c, member, qid);
                stack->setQueueDomain(qid, member);
                if (member == 0)
                    stack->mapCoreToQueue(c, qid);
                qids.push_back(qid);
            }
            serverNic_->addNetdev(kServerIp, std::move(qids));
        }
        serverNic_->setBondMode(true);
        serverStacks_.push_back(std::move(stack));
        break;
      }
    }
}

void
Testbed::buildServerBypass(pcie::PciFunction& pf0, pcie::PciFunction& pf1)
{
    // Same NIC/PF/queue geometry as the interrupt presets, but every
    // queue is put into polled mode and handed to a PollPort: Local and
    // Remote pin all rings behind PF0 (standard firmware), Ioctopus
    // binds each ring to the PF local to its core's node (octo
    // firmware). Port index == core id by construction.
    serverPoll_ = std::make_unique<bypass::PollPlane>(
        *server_, *serverNic_, cfg_.bypassCfg);
    const int total = cfg_.cal.nodes * cfg_.cal.coresPerNode;
    std::vector<int> qids;
    for (int c = 0; c < total; ++c) {
        topo::Core& core = server_->core(c);
        pcie::PciFunction& pf =
            cfg_.mode == ServerMode::Ioctopus && core.node() != 0 ? pf1
                                                                  : pf0;
        const int qid =
            serverNic_->addQueue(core, pf, cfg_.rxRingEntries);
        serverPoll_->addPort(core, qid);
        qids.push_back(qid);
    }
    serverNic_->addNetdev(kServerIp, qids);
}

void
Testbed::buildClientSide()
{
    clientNic_ = std::make_unique<nic::NicDevice>(*client_, "clientNIC");
    clientNic_->setRxCoalesce(cfg_.rxCoalesce);

    // Plain x16 NIC on node 0; the client workload also runs there.
    pcie::PciFunction& pf = clientNic_->addFunction(0, 16);

    const int per_node = cfg_.cal.coresPerNode;
    const int total = cfg_.cal.nodes * per_node;

    if (cfg_.bypass) {
        // The client polls too: one port per core behind the local x16
        // PF, so client-side software cost never skews the comparison.
        clientPoll_ = std::make_unique<bypass::PollPlane>(
            *client_, *clientNic_, cfg_.bypassCfg);
        std::vector<int> poll_qids;
        for (int c = 0; c < total; ++c) {
            topo::Core& core = client_->core(c);
            const int qid =
                clientNic_->addQueue(core, pf, cfg_.rxRingEntries);
            clientPoll_->addPort(core, qid);
            poll_qids.push_back(qid);
        }
        clientNic_->addNetdev(kClientIp, poll_qids);
        return;
    }

    clientStack_ = std::make_unique<os::NetStack>(*client_, *clientNic_,
                                                  cfg_.stack);
    std::vector<int> qids;
    for (int c = 0; c < total; ++c) {
        const int qid = clientNic_->addQueue(client_->core(c), pf,
                                             cfg_.rxRingEntries);
        qids.push_back(qid);
    }
    // Unlike the pinned server experiments, the client is unconstrained:
    // its softirq work lands on a neighbouring core of the same node
    // rather than the application's own core (default IRQ spreading),
    // which is what lets one netperf connection exceed a single core's
    // receive capacity in the Tx experiments.
    for (int c = 0; c < total; ++c) {
        const int node = c / per_node;
        const int neighbour = node * per_node + (c + 1) % per_node;
        clientStack_->mapCoreToQueue(c, qids[neighbour]);
    }
    clientNic_->addNetdev(kClientIp, qids);
}

os::ThreadCtx
Testbed::serverThread(int node, int local)
{
    return os::ThreadCtx(*server_, server_->coreOn(node, local));
}

os::ThreadCtx
Testbed::clientThread(int local, int node)
{
    return os::ThreadCtx(*client_, client_->coreOn(node, local));
}

TcpPair
Testbed::connect(os::ThreadCtx& server_t, os::ThreadCtx& client_t,
                 bool tso, std::uint64_t window)
{
    // Sockets are a kernel-stack construct; the polled presets speak
    // raw bursts through the PollPorts instead.
    assert(!cfg_.bypass);

    // TwoNics: the socket binds to the netdev of the server thread's
    // node at creation time — the association §2.5 shows cannot follow
    // a migrating thread.
    std::uint32_t server_ip = kServerIp;
    if (cfg_.mode == ServerMode::TwoNics && server_t.node() == 1)
        server_ip = kServerIp2;

    const std::uint16_t port = nextPort_++;
    nic::FiveTuple to_server;
    to_server.srcIp = kClientIp;
    to_server.dstIp = server_ip;
    to_server.srcPort = port;
    to_server.dstPort = 5001;
    to_server.proto = nic::Proto::Tcp;

    os::NetStack& sstack = serverStack(0);
    const std::uint64_t win =
        window == 0 ? cfg_.stack.windowBytes : window;
    os::Socket& ss = sstack.createSocket(to_server, win, tso);
    if (cfg_.mode == ServerMode::TwoNics)
        ss.steerDomain = server_t.node();
    if (cfg_.mode == ServerMode::Bonded) {
        // The switch's member choice is a property of the flow hash;
        // the socket is stuck with it for life.
        ss.steerDomain = static_cast<int>((to_server.hash() >> 32) % 2);
    }
    os::Socket& cs =
        clientStack_->createSocket(to_server.reversed(), win, tso);
    os::NetStack::pair(ss, cs);

    return TcpPair{server_t, client_t, &ss, &cs, &sstack,
                   clientStack_.get()};
}

} // namespace octo::core

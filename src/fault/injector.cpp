#include "fault/injector.hpp"

#include <cstdio>

#include "nic/device.hpp"
#include "nvme/driver.hpp"
#include "os/netstack.hpp"
#include "topo/machine.hpp"

namespace octo::fault {

const char*
kindName(FaultKind k)
{
    switch (k) {
    case FaultKind::PcieLinkDown: return "pcie_link_down";
    case FaultKind::PcieLinkUp: return "pcie_link_up";
    case FaultKind::PcieWidthDegrade: return "pcie_width_degrade";
    case FaultKind::PcieRestore: return "pcie_restore";
    case FaultKind::PfKill: return "pf_kill";
    case FaultKind::PfRecover: return "pf_recover";
    case FaultKind::QueueStall: return "queue_stall";
    case FaultKind::QueuePoison: return "queue_poison";
    case FaultKind::QpiDegrade: return "qpi_degrade";
    case FaultKind::QpiRestore: return "qpi_restore";
    case FaultKind::IrqDelay: return "irq_delay";
    case FaultKind::IrqDrop: return "irq_drop";
    case FaultKind::IrqRestore: return "irq_restore";
    case FaultKind::NvmeDoorbellStuck: return "nvme_doorbell_stuck";
    case FaultKind::NvmeCqStall: return "nvme_cq_stall";
    case FaultKind::PfGrayDelay: return "pf_gray_delay";
    case FaultKind::PfGrayDrop: return "pf_gray_drop";
    case FaultKind::PfGrayRestore: return "pf_gray_restore";
    }
    return "unknown";
}

namespace {

/** Endpoint class an event's `target` indexes into. */
enum class TargetClass
{
    Pf,
    Queue,
    NvmeSq,
    None, // QPI / IRQ events carry no endpoint index.
};

TargetClass
targetClass(FaultKind k)
{
    switch (k) {
    case FaultKind::PcieLinkDown:
    case FaultKind::PcieLinkUp:
    case FaultKind::PcieWidthDegrade:
    case FaultKind::PcieRestore:
    case FaultKind::PfKill:
    case FaultKind::PfRecover:
    case FaultKind::PfGrayDelay:
    case FaultKind::PfGrayDrop:
    case FaultKind::PfGrayRestore:
        return TargetClass::Pf;
    case FaultKind::QueueStall:
    case FaultKind::QueuePoison:
        return TargetClass::Queue;
    case FaultKind::NvmeDoorbellStuck:
    case FaultKind::NvmeCqStall:
        return TargetClass::NvmeSq;
    case FaultKind::QpiDegrade:
    case FaultKind::QpiRestore:
    case FaultKind::IrqDelay:
    case FaultKind::IrqDrop:
    case FaultKind::IrqRestore:
        return TargetClass::None;
    }
    return TargetClass::None;
}

std::string
describe(const FaultEvent& ev)
{
    return std::string(kindName(ev.kind)) + "@" +
           std::to_string(static_cast<long long>(sim::toUs(ev.at))) +
           "us(target=" + std::to_string(ev.target) + ")";
}

} // namespace

std::vector<std::string>
FaultPlan::validate(const TargetSpec& spec) const
{
    std::vector<std::string> errors;
    auto reject = [&](const FaultEvent& ev, const std::string& why) {
        errors.push_back(describe(ev) + ": " + why);
    };

    // Walk in replay order so PF lifecycle checks see what the
    // injector will actually do.
    std::vector<bool> dead(64, false);
    for (const FaultEvent& ev : events()) {
        // Endpoint existence.
        const TargetClass cls = targetClass(ev.kind);
        int limit = -1;
        const char* what = nullptr;
        switch (cls) {
        case TargetClass::Pf: limit = spec.pfCount; what = "PF"; break;
        case TargetClass::Queue:
            limit = spec.queueCount;
            what = "queue";
            break;
        case TargetClass::NvmeSq:
            limit = spec.nvmeSqCount;
            what = "NVMe SQ";
            break;
        case TargetClass::None: break;
        }
        if (cls != TargetClass::None &&
            (ev.target < 0 || (limit >= 0 && ev.target >= limit))) {
            reject(ev, std::string("targets nonexistent ") + what +
                           " (have " + std::to_string(limit) +
                           "); fix the target index or the campaign's "
                           "TargetSpec");
            continue; // lifecycle tracking on a bogus index is noise
        }

        // Per-kind parameter domains and PF lifecycle.
        const std::size_t pf = static_cast<std::size_t>(ev.target);
        switch (ev.kind) {
        case FaultKind::PfKill:
            if (pf < dead.size() && dead[pf])
                reject(ev, "duplicate kill: PF is already dead; "
                           "schedule a pfRecover first");
            if (pf < dead.size())
                dead[pf] = true;
            break;
        case FaultKind::PfRecover:
            if (pf < dead.size() && !dead[pf])
                reject(ev, "recover-before-kill: PF was never killed "
                           "(or already recovered); drop this event or "
                           "move it after the pfKill");
            if (pf < dead.size())
                dead[pf] = false;
            break;
        case FaultKind::PfGrayDelay:
        case FaultKind::PfGrayDrop:
            if (ev.scale <= 0.0 || ev.scale > 1.0)
                reject(ev, "gray probability " +
                               std::to_string(ev.scale) +
                               " outside (0, 1]");
            break;
        case FaultKind::PcieWidthDegrade:
            if (ev.arg < 1)
                reject(ev, "retrain width must be >= 1 lane");
            if (ev.scale <= 0.0 || ev.scale > 1.0)
                reject(ev, "gen scale " + std::to_string(ev.scale) +
                               " outside (0, 1]");
            break;
        case FaultKind::QpiDegrade:
            if (ev.scale <= 0.0 || ev.scale > 1.0)
                reject(ev, "QPI scale " + std::to_string(ev.scale) +
                               " outside (0, 1]");
            break;
        default:
            break;
        }
    }
    return errors;
}

FaultPlan
FaultPlan::randomized(std::uint64_t seed, sim::Tick horizon,
                      int pf_count, int queue_count, int episodes)
{
    FaultPlan plan;
    sim::Rng rng(seed);
    if (horizon <= 0 || episodes <= 0)
        return plan;
    // Each episode is a fault/recovery pair inside its own slice of the
    // horizon, so outages never overlap across episodes and every fault
    // is healed before the horizon ends.
    const sim::Tick slice = horizon / episodes;
    for (int e = 0; e < episodes; ++e) {
        const sim::Tick base = slice * e;
        const auto at =
            base + static_cast<sim::Tick>(rng.below(
                       static_cast<std::uint64_t>(slice / 2)));
        const auto heal =
            at + slice / 4 +
            static_cast<sim::Tick>(
                rng.below(static_cast<std::uint64_t>(slice / 8)));
        switch (rng.below(4)) {
        case 0: {
            const int pf = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(
                    pf_count > 0 ? pf_count : 1)));
            plan.pfKill(at, pf).pfRecover(heal, pf);
            break;
        }
        case 1: {
            const int pf = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(
                    pf_count > 0 ? pf_count : 1)));
            const int lanes = 1 << rng.below(3); // x1 / x2 / x4
            plan.pcieWidthDegrade(at, pf, lanes).pcieRestore(heal, pf);
            break;
        }
        case 2: {
            const int qid = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(
                    queue_count > 0 ? queue_count : 1)));
            plan.queueStall(at, qid, heal - at);
            break;
        }
        default: {
            const double scale =
                0.1 + 0.4 * rng.uniform(); // 10–50% of nominal
            plan.qpiDegrade(at, scale).qpiRestore(heal);
            break;
        }
        }
    }
    return plan;
}

FaultPlan
FaultPlan::randomStress(std::uint64_t seed, sim::Tick horizon,
                        int pf_count, int queue_count, int episodes)
{
    FaultPlan plan;
    sim::Rng rng(seed);
    if (horizon <= 0 || episodes <= 0)
        return plan;
    const sim::Tick slice = horizon / episodes;
    for (int e = 0; e < episodes; ++e) {
        const sim::Tick base = slice * e;
        const auto at =
            base + static_cast<sim::Tick>(rng.below(
                       static_cast<std::uint64_t>(slice / 2)));
        const auto heal =
            at + slice / 4 +
            static_cast<sim::Tick>(
                rng.below(static_cast<std::uint64_t>(slice / 8)));
        const int pf = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(pf_count > 0 ? pf_count : 1)));
        switch (rng.below(6)) {
        case 0:
            plan.pfKill(at, pf).pfRecover(heal, pf);
            break;
        case 1: {
            // Width *and* gen downshift in one retrain.
            const int lanes = 1 << rng.below(3); // x1 / x2 / x4
            const double gen = rng.chance(0.5) ? 0.5 : 1.0;
            plan.pcieWidthDegrade(at, pf, lanes, gen)
                .pcieRestore(heal, pf);
            break;
        }
        case 2:
            // Silent flap: no hotplug event reaches the driver; only
            // health sampling or frame loss can notice it.
            plan.pcieLinkDown(at, pf).pcieLinkUp(heal, pf);
            break;
        case 3: {
            const int qid = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(
                    queue_count > 0 ? queue_count : 1)));
            plan.queueStall(at, qid, heal - at);
            break;
        }
        case 4: {
            const double scale = 0.1 + 0.4 * rng.uniform();
            plan.qpiDegrade(at, scale).qpiRestore(heal);
            break;
        }
        default:
            if (rng.chance(0.5))
                plan.irqDrop(at, static_cast<int>(rng.between(2, 5)));
            else
                plan.irqDelay(at, sim::fromUs(static_cast<sim::Tick>(
                                      rng.between(20, 200))));
            plan.irqRestore(heal);
            break;
        }
    }
    return plan;
}

Injector::Injector(sim::Simulator& sim, Targets targets, FaultPlan plan)
    : sim_(sim), targets_(targets), plan_(std::move(plan))
{
}

void
Injector::start()
{
    if (started_)
        return;
    TargetSpec spec;
    if (targets_.nic != nullptr) {
        spec.pfCount = targets_.nic->functionCount();
        spec.queueCount = targets_.nic->queueCount();
    }
    if (targets_.nvme != nullptr)
        spec.nvmeSqCount = targets_.nvme->sqCount();
    planErrors_ = plan_.validate(spec);
    if (!planErrors_.empty()) {
        for (const std::string& e : planErrors_)
            std::fprintf(stderr, "fault: rejected plan: %s\n",
                         e.c_str());
        return;
    }
    started_ = true;
    task_ = run();
}

sim::Task<>
Injector::run()
{
    for (const FaultEvent& ev : plan_.events()) {
        if (ev.at > sim_.now())
            co_await sim::delay(sim_, ev.at - sim_.now());
        apply(ev);
    }
    done_ = true;
}

void
Injector::apply(const FaultEvent& ev)
{
    nic::NicDevice* nic = targets_.nic;
    os::NetStack* stack = targets_.stack;
    topo::Machine* machine = targets_.machine;

    bool hit = true;
    switch (ev.kind) {
    case FaultKind::PcieLinkDown:
        if (nic != nullptr)
            nic->function(ev.target).setLinkUp(false);
        else
            hit = false;
        break;
    case FaultKind::PcieLinkUp:
        if (nic != nullptr)
            nic->function(ev.target).setLinkUp(true);
        else
            hit = false;
        break;
    case FaultKind::PcieWidthDegrade:
        if (nic != nullptr) {
            nic->function(ev.target).degradeWidth(ev.arg);
            if (ev.scale < 1.0)
                nic->function(ev.target).degradeGen(ev.scale);
        } else {
            hit = false;
        }
        break;
    case FaultKind::PcieRestore:
        if (nic != nullptr)
            nic->function(ev.target).restoreLink();
        else
            hit = false;
        break;
    case FaultKind::PfKill:
        // Surprise removal: the link drops *and* the driver hears about
        // it (hotplug event), unlike the silent PcieLinkDown.
        if (nic != nullptr)
            nic->setPfLink(ev.target, false);
        else
            hit = false;
        break;
    case FaultKind::PfRecover:
        // setPfLink first so the driver notification fires; restoreLink
        // then retrains width/gen (its own setLinkUp is a no-op here).
        if (nic != nullptr) {
            nic->setPfLink(ev.target, true);
            nic->function(ev.target).restoreLink();
        } else {
            hit = false;
        }
        break;
    case FaultKind::QueueStall:
        if (nic != nullptr)
            nic->stallQueue(ev.target, ev.duration);
        else
            hit = false;
        break;
    case FaultKind::QueuePoison:
        if (nic != nullptr)
            nic->poisonQueue(ev.target, ev.duration);
        else
            hit = false;
        break;
    case FaultKind::QpiDegrade:
        if (machine != nullptr)
            machine->setQpiScale(ev.scale);
        else
            hit = false;
        break;
    case FaultKind::QpiRestore:
        if (machine != nullptr)
            machine->setQpiScale(1.0);
        else
            hit = false;
        break;
    case FaultKind::IrqDelay:
        if (stack != nullptr)
            stack->setIrqDelay(ev.duration);
        else
            hit = false;
        break;
    case FaultKind::IrqDrop:
        if (stack != nullptr)
            stack->setIrqDropEvery(ev.arg);
        else
            hit = false;
        break;
    case FaultKind::IrqRestore:
        if (stack != nullptr) {
            stack->setIrqDelay(0);
            stack->setIrqDropEvery(0);
        } else {
            hit = false;
        }
        break;
    case FaultKind::NvmeDoorbellStuck:
        if (targets_.nvme != nullptr)
            targets_.nvme->stallDoorbell(ev.target, ev.duration);
        else
            hit = false;
        break;
    case FaultKind::NvmeCqStall:
        if (targets_.nvme != nullptr)
            targets_.nvme->stallCq(ev.target, ev.duration);
        else
            hit = false;
        break;
    case FaultKind::PfGrayDelay:
        if (nic != nullptr)
            nic->function(ev.target).setGrayDelay(ev.scale,
                                                  ev.duration);
        else
            hit = false;
        break;
    case FaultKind::PfGrayDrop:
        if (nic != nullptr)
            nic->function(ev.target).setGrayDrop(ev.scale);
        else
            hit = false;
        break;
    case FaultKind::PfGrayRestore:
        if (nic != nullptr)
            nic->function(ev.target).clearGray();
        else
            hit = false;
        break;
    }

    if (hit) {
        ++applied_;
        ++perKind_.at(static_cast<std::size_t>(ev.kind));
    } else {
        ++skipped_;
    }
}

} // namespace octo::fault

/**
 * @file
 * NVMe SSD model (paper §5.4): a PCIe-attached storage controller with
 * internal media bandwidth, submission/completion semantics, and —
 * following the dual-port drives the paper customizes a backplane for —
 * optionally a second PCIe endpoint on the other socket (the OctoSSD
 * direction the paper leaves to future work; we implement it so the
 * NVMe ablation can compare).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pcie/function.hpp"
#include "sim/pipe.hpp"
#include "sim/task.hpp"
#include "topo/machine.hpp"

namespace octo::nvme {

using sim::Task;
using sim::Tick;

/** One NVMe SSD. */
class NvmeDevice
{
  public:
    /**
     * @param host  Host machine.
     * @param node  Socket the (first) PCIe port attaches to.
     * @param lanes PCIe lanes (x4 typical for U.2 drives).
     */
    NvmeDevice(topo::Machine& host, int node, int lanes, std::string name)
        : host_(host),
          media_(host.sim(), host.cal().ssdGbps, host.cal().ssdLatency,
                 name + ".media"),
          name_(std::move(name))
    {
        ports_.push_back(std::make_unique<pcie::PciFunction>(
            host, node, lanes, 0, name_ + ".pf0"));
    }

    /** Add the second (dual-port) endpoint on @p node. */
    pcie::PciFunction&
    addSecondPort(int node, int lanes)
    {
        ports_.push_back(std::make_unique<pcie::PciFunction>(
            host_, node, lanes, 1, name_ + ".pf1"));
        return *ports_.back();
    }

    const std::string& name() const { return name_; }

    int portCount() const { return static_cast<int>(ports_.size()); }
    pcie::PciFunction& port(int idx) { return *ports_.at(idx); }

    /**
     * The port local to @p mem_node when present (OctoSSD steering),
     * else port 0: the home port of the driver's SQ for that node.
     */
    pcie::PciFunction&
    portFor(int mem_node)
    {
        for (auto& p : ports_) {
            if (p->node() == mem_node)
                return *p;
        }
        return *ports_.front();
    }

    /**
     * Block read of @p bytes into a buffer on @p buf_node through port
     * @p pf: media access, payload DMA, then the 64B completion entry
     * DMA to @p cq_node, the submitter's socket (a cross-socket buffer
     * must not drag the CQE across with it). nvme::NvmeDriver is the
     * caller: the port is the submission queue's current binding, not
     * a per-IO choice.
     * @return Total device-side latency.
     */
    Task<Tick>
    readVia(pcie::PciFunction& pf, std::uint64_t bytes, int buf_node,
            int cq_node)
    {
        const Tick start = host_.sim().now();
        co_await media_.transfer(bytes);
        co_await pf.dmaWrite(buf_node, bytes);
        co_await pf.dmaWrite(cq_node, 64); // completion entry
        ++completions_;
        co_return host_.sim().now() - start;
    }

    std::uint64_t completions() const { return completions_; }

    topo::Machine& host() { return host_; }

  private:
    topo::Machine& host_;
    sim::Pipe media_;
    std::string name_;
    std::vector<std::unique_ptr<pcie::PciFunction>> ports_;
    std::uint64_t completions_ = 0;
};

} // namespace octo::nvme

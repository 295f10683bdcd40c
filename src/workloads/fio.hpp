/**
 * @file
 * fio-style NVMe reader (paper §5.4, Fig. 15): several threads issue
 * asynchronous direct reads at a fixed queue depth against SSDs that
 * are remote from their CPU.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nvme/driver.hpp"
#include "os/thread.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace octo::workloads {

/** fio job parameters. */
struct FioConfig
{
    std::uint64_t blockBytes = 128u << 10;
    int queueDepth = 32;
    /** Per-IO submission+reap CPU cost on the issuing core. */
    sim::Tick perIoCpu = sim::fromUs(1.2);
};

/**
 * One fio thread bound to one core, striping reads across drives. IOs
 * go through each drive's multi-queue driver: the submitter's per-node
 * SQ picks the port (the node-local one on a dual-port OctoSSD), and
 * the buffer sits on the submitting core's node.
 */
class FioThread
{
  public:
    FioThread(os::ThreadCtx ctx, std::vector<nvme::NvmeDriver*> drivers,
              const FioConfig& cfg)
        : ctx_(ctx), drivers_(std::move(drivers)), cfg_(cfg),
          qd_(ctx_.machine().sim(), cfg.queueDepth)
    {
    }

    void start() { loop_ = run(); }

    std::uint64_t bytesRead() const { return bytes_; }

  private:
    sim::Task<>
    run()
    {
        std::uint64_t i = 0;
        for (;;) {
            co_await qd_.acquire();
            co_await ctx_.core().compute(cfg_.perIoCpu);
            io(*drivers_[i++ % drivers_.size()]).detach();
        }
    }

    sim::Task<>
    io(nvme::NvmeDriver& drv)
    {
        co_await drv.read(cfg_.blockBytes, ctx_.node(), ctx_.node());
        bytes_ += cfg_.blockBytes;
        qd_.release();
    }

    os::ThreadCtx ctx_;
    std::vector<nvme::NvmeDriver*> drivers_;
    FioConfig cfg_;
    sim::Semaphore qd_;
    std::uint64_t bytes_ = 0;
    sim::Task<> loop_;
};

} // namespace octo::workloads

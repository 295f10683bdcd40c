/**
 * @file
 * Bandwidth-server resources.
 *
 * A Pipe models a shared, rate-limited transport (a DRAM channel, a QPI
 * link direction, a PCIe link direction, the Ethernet wire, or a CPU
 * core's execution bandwidth) as a non-preemptive FIFO server: each
 * transfer occupies the server for bytes/rate and completes after an
 * additional fixed propagation latency. Queueing delay therefore emerges
 * naturally when concurrent users contend for the same pipe.
 */
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace octo::sim {

/**
 * FIFO bandwidth server with fixed propagation latency.
 *
 * Throughput accounting: totalBytes() is cumulative; callers measuring a
 * window record the counter at window start and end.
 */
class Pipe
{
  public:
    /**
     * @param sim      Owning simulator.
     * @param gbps     Service rate in gigabits per second.
     * @param latency  Fixed propagation latency added to every transfer.
     * @param name     Diagnostic name.
     */
    Pipe(Simulator& sim, double gbps, Tick latency = 0,
         std::string name = "pipe")
        : sim_(sim), gbps_(gbps), latency_(latency), name_(std::move(name))
    {
    }

    Pipe(const Pipe&) = delete;
    Pipe& operator=(const Pipe&) = delete;

    const std::string& name() const { return name_; }
    double rateGbps() const { return gbps_; }

    /** Change the service rate (takes effect for future transfers). */
    void setRateGbps(double gbps) { gbps_ = gbps; }

    /** Cumulative bytes served. */
    std::uint64_t totalBytes() const { return totalBytes_; }

    /** Cumulative busy (serving) time. */
    Tick busyTime() const { return busy_; }

    /** Number of transfers served. */
    std::uint64_t transfers() const { return transfers_; }

    /** Current queueing backlog, in ticks of service time. */
    Tick
    backlog() const
    {
        const Tick now = sim_.now();
        return nextFree_ > now ? nextFree_ - now : 0;
    }

    /** Awaiter returned by transfer(): one timer event on the awaiting
     *  coroutine, resuming with the transfer's latency. */
    struct [[nodiscard]] TransferAwaiter : Delay
    {
        Tick await_resume() const noexcept { return d; }
    };

    /**
     * Occupy the pipe for @p bytes now; awaiting the result suspends
     * until the transfer has fully propagated and yields the latency
     * experienced (queueing + service + propagation). The booking
     * happens at the call, so await it at once.
     */
    TransferAwaiter
    transfer(std::uint64_t bytes)
    {
        const Tick done = reserve(bytes);
        return TransferAwaiter{{sim_, done - sim_.now()}};
    }

    /**
     * Book the pipe for @p bytes without waiting: returns the absolute
     * tick at which the transfer completes. For callers that overlap a
     * transfer with other work and wait later.
     */
    Tick
    reserve(std::uint64_t bytes)
    {
        const Tick service = transferTime(bytes, gbps_);
        const Tick start =
            nextFree_ > sim_.now() ? nextFree_ : sim_.now();
        nextFree_ = start + service;
        busy_ += service;
        totalBytes_ += bytes;
        ++transfers_;
        return nextFree_ + latency_;
    }

  private:
    Simulator& sim_;
    double gbps_;
    Tick latency_;
    std::string name_;

    Tick nextFree_ = 0;
    Tick busy_ = 0;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t transfers_ = 0;
};

/**
 * A pair of Pipes modelling a full-duplex link (one server per
 * direction).
 */
class DuplexLink
{
  public:
    DuplexLink(Simulator& sim, double gbps, Tick latency,
               const std::string& name)
        : forward_(sim, gbps, latency, name + ".fwd"),
          backward_(sim, gbps, latency, name + ".bwd")
    {
    }

    Pipe& dir(bool forward) { return forward ? forward_ : backward_; }
    Pipe& forward() { return forward_; }
    Pipe& backward() { return backward_; }

  private:
    Pipe forward_;
    Pipe backward_;
};

} // namespace octo::sim

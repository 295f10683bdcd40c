/**
 * @file
 * Socket model: a bidirectional byte stream (or datagram channel)
 * between two endpoints, with receive queue, flow-control window, and
 * out-of-order accounting.
 */
#pragma once

#include <cstdint>
#include <deque>

#include "mem/cache.hpp"
#include "nic/flow.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace octo::os {

/** One received segment queued in the socket buffer. */
struct RxSeg
{
    std::uint32_t bytes = 0;
    mem::DataLoc loc = mem::DataLoc::Dram;
    int node = 0;           ///< Node the packet buffer lives on.
    sim::Tick sentAt = 0;
    sim::Tick arrivedAt = 0; ///< NIC wire arrival of the segment's
                             ///< first frame (e2e latency span open).
};

/**
 * A connected socket endpoint.
 *
 * The TCP model is a windowed byte stream: the sender blocks when
 * in-flight bytes reach the window; the receiver's softirq delivery
 * releases window credits after an ack propagation delay. Congestion
 * control is deliberately not modelled (back-to-back lossless link).
 */
class Socket
{
  public:
    /**
     * @param rx_flow The 5-tuple of traffic *arriving* at this endpoint
     *                (demux key). The transmit direction is its reverse.
     */
    Socket(sim::Simulator& sim, nic::FiveTuple rx_flow,
           std::uint64_t window_bytes, bool tso)
        : rxFlow(rx_flow), txFlow(rx_flow.reversed()),
          txWindow(sim, static_cast<std::int64_t>(window_bytes)),
          windowBytes(window_bytes), dataReady(sim), tso(tso)
    {
    }

    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    // ------------------------------------------------------------- state
    nic::FiveTuple rxFlow;
    nic::FiveTuple txFlow;

    /** Remote endpoint (for the abstracted ack path). */
    Socket* peer = nullptr;

    /** Sender-side flow-control credits, in bytes. */
    sim::Semaphore txWindow;
    std::uint64_t windowBytes;

    /** Small writes accumulated by Nagle/autocork, not yet posted. */
    std::uint64_t coalesced = 0;

    /** Receive queue (socket buffer). */
    std::deque<RxSeg> rxq;
    std::uint64_t rxBytesAvail = 0;
    sim::Signal dataReady;

    bool tso = true;

    /** When true, send() copies source bytes that miss the LLC (large
     *  working sets, e.g. memcached values). */
    bool txSourceCold = false;

    // -------------------------------------------------------- accounting
    std::uint64_t nextTxWireSeq = 0;  ///< Next wire-frame sequence.
    std::uint64_t expectedRxSeq = 0;  ///< In-order delivery check.
    std::uint64_t oooEvents = 0;      ///< Observed reordering events.
    std::uint64_t bytesDelivered = 0; ///< Total bytes through recv().
    int lastRxCore = -1;              ///< ARFS migration detection.
    sim::Tick lastRxAt = 0;           ///< For steering-rule expiry.

    /** When >= 0, steering updates may only target queues in this
     *  domain (netdev) — models the §2.5 fact that a socket cannot
     *  change physical device once established. */
    int steerDomain = -1;

    // ------------------------------------------ loss & retry accounting
    /** Payload bytes of this socket's *incoming* flow dropped inside the
     *  receiving NIC (dead-PF Rx drops). Recorded by the receiver's
     *  stack; read by the sender's retry worker through `peer`. */
    std::uint64_t lostRxBytes = 0;

    /** Payload bytes of this socket's *outgoing* flow aborted in the
     *  local NIC before reaching the wire (dead-PF Tx aborts). */
    std::uint64_t lostTxBytes = 0;

    /** Lost bytes whose window credits the retry worker has already
     *  returned. Leak invariant: once traffic quiesces, reclaimedBytes
     *  equals lostTxBytes + peer->lostRxBytes and the window is full. */
    std::uint64_t reclaimedBytes = 0;

    /** Time of the most recent loss on either side of this connection;
     *  the retry worker reclaims only after a quiet retryTimeout (RTO
     *  semantics: retransmissions stop being futile only once the
     *  blackout ends). */
    sim::Tick lastLossAt = 0;
};

} // namespace octo::os

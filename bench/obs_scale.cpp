/**
 * @file
 * Telemetry-scale bench: attribution cost and resident state versus
 * live-flow count.
 *
 * The question this answers is the ROADMAP's million-flow one: what
 * does flow-grain DMA attribution cost when the number of live flows
 * outgrows any sane per-flow row budget? Three accountant
 * configurations run the identical record stream:
 *
 *   - sketch64 / sketch16: the bounded Space-Saving accountant at the
 *     production default K=64 and a small K=16
 *   - unbounded: K set far above the flow count, so admission always
 *     succeeds, the eviction heap is never built and every flow keeps
 *     its own row: one sketch cell per flow, which the registry reads
 *     on demand like any other accountant's rows
 *
 * The stream is a churny skew: a hot set of kHotKeys flows carries
 * half the records (the heavy hitters the sketch must retain) while
 * the other half lands on an ever-advancing fresh-key front (the
 * short-lived tail that killed the unbounded design). Every record
 * also feeds an exact reference total, so the run re-verifies the
 * conservation law at full scale: labeled rows + ~other == reference,
 * regardless of K or churn.
 *
 * Every (mode, K, flows) accountant is alive at once, and the stream
 * runs in kChunks chunks round-robin across them, so each pass's
 * chunks are spread over the whole run rather than one host-speed
 * period. Per pass the bench reports wall ns/record (min over its
 * chunks, filtering host noise out of the flatness comparison),
 * resident sketch rows, registry label rows, and evictions.
 * Acceptance (tools/check_obs_scale.py): every pass conserves bytes,
 * bounded modes hold rows <= K (+1 registry row for ~other) and flat
 * ns/record across three decades of flow count, while the unbounded
 * mode's rows grow with the flow count.
 *
 * Output: an `obs_scale.csv` table plus printed rows. The bench
 * asserts nothing; the script checks the CSV. `--quick` trims the
 * sweep for the ctest run.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "obs/dma.hpp"
#include "obs/hub.hpp"
#include "sim/rng.hpp"

namespace {

using octo::obs::DmaAccountant;
using octo::obs::Hub;
using octo::obs::Labels;
using octo::obs::MetricRegistry;

constexpr std::uint64_t kHotKeys = 48;

/** Flow label of key @p key. */
std::string
flowName(std::uint64_t key)
{
    return "f" + std::to_string(key);
}

/** Stream chunks per pass (dividing both record counts); each pass
 *  keeps its fastest chunk. A sketch is full and evicting after a few
 *  hundred records, so every chunk does the same work. The host's
 *  fast periods are short and rare, so the chunks are short too:
 *  every pass samples them alike, and the flatness comparison sees
 *  the algorithm, not the host. */
constexpr std::uint64_t kChunks = 250;

struct PassResult
{
    std::string mode;
    int topK = 0;
    std::uint64_t flows = 0;
    std::uint64_t records = 0;
    double nsPerRecord = 0.0;
    std::uint64_t residentRows = 0;
    std::uint64_t labelRows = 0;
    std::uint64_t evictions = 0;
    bool conserved = false;
};

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Labeled flow_dma_local_bytes rows currently in the registry. */
std::uint64_t
labelRowCount(const MetricRegistry& reg)
{
    std::uint64_t rows = 0;
    reg.forEach([&rows](const std::string& name, const Labels&,
                        octo::obs::MetricKind) {
        if (name == "flow_dma_local_bytes")
            ++rows;
    });
    return rows;
}

/**
 * One sweep point: an accountant with sketch capacity top_k fed its
 * own record stream over a universe of @p flows keys. Half the records
 * hit the hot set, half walk a fresh-key front spanning the whole
 * universe — admission-heavy churn, the sketch's worst case.
 */
class Pass
{
  public:
    Pass(std::string mode, int top_k, std::uint64_t flows)
        : mode_(std::move(mode)), flows_(flows),
          acc_(&hub_, "bench", top_k), rng_(0x0B5'5CA1Eull ^ flows)
    {
    }

    /** Feed the next @p n records; keep the chunk's ns/record if it
     *  is the fastest so far. */
    void
    runChunk(std::uint64_t n)
    {
        const std::uint64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t key;
            if (rng_.chance(0.5)) {
                key = rng_.below(kHotKeys);
            } else {
                key = fresh_;
                fresh_ = fresh_ + 1 < flows_ ? fresh_ + 1 : kHotKeys;
            }
            const std::uint64_t bytes = 64 + rng_.below(1460);
            const bool local = rng_.chance(0.7);
            acc_.record<flowName>(key, key, bytes, local, local);
            (local ? localRef_ : remoteRef_) += bytes;
        }
        const double per_record =
            static_cast<double>(nowNs() - t0) / static_cast<double>(n);
        if (minChunkNs_ == 0.0 || per_record < minChunkNs_)
            minChunkNs_ = per_record;
        records_ += n;
    }

    PassResult
    result()
    {
        const MetricRegistry& reg = hub_.metrics();
        const Labels dev = {{"dev", "bench"}};
        PassResult r;
        r.mode = mode_;
        r.topK = acc_.topK();
        r.flows = flows_;
        r.records = records_;
        r.nsPerRecord = minChunkNs_;
        r.residentRows = acc_.flowCount();
        r.labelRows = labelRowCount(reg);
        r.evictions = acc_.evictions();
        r.conserved =
            reg.sumCounters("flow_dma_local_bytes", dev) == localRef_ &&
            reg.sumCounters("flow_dma_remote_bytes", dev) == remoteRef_;
        return r;
    }

  private:
    std::string mode_;
    std::uint64_t flows_;
    Hub hub_;
    DmaAccountant acc_;
    octo::sim::Rng rng_;
    std::uint64_t fresh_ = kHotKeys;
    std::uint64_t localRef_ = 0;
    std::uint64_t remoteRef_ = 0;
    std::uint64_t records_ = 0;
    double minChunkNs_ = 0.0;
};

} // namespace

int
main(int argc, char** argv)
{
    const bool quick = octo::bench::parseFlags(argc, argv).quick;
    // Fixed record count per pass so ns/record averages stabilize:
    // cost flatness across flow counts is the claim under test, and a
    // shared denominator keeps the comparison honest.
    const std::uint64_t records = quick ? 1'000'000 : 4'000'000;
    std::vector<std::uint64_t> flow_counts = {1'000, 10'000, 100'000};
    if (!quick)
        flow_counts.push_back(1'000'000);

    std::printf("### obs_scale: %llu records/pass, hot set %llu "
                "flows, 50%% fresh-key churn\n",
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(kHotKeys));
    std::printf("%-10s %6s %9s %12s %10s %10s %12s %s\n", "mode",
                "topK", "flows", "ns/record", "resident", "rows",
                "evictions", "conserved");

    std::vector<std::unique_ptr<Pass>> passes;
    for (std::uint64_t flows : flow_counts) {
        passes.push_back(std::make_unique<Pass>("sketch64", 64, flows));
        passes.push_back(std::make_unique<Pass>("sketch16", 16, flows));
        // Unbounded baseline: capacity above any flow count in the
        // sweep — the pre-sketch accountant's behavior, for cost and
        // row-growth comparison. Capped at 100k flows: beyond that a
        // row per flow is gigabytes, which is the point — the bounded
        // modes above run the full sweep.
        if (flows <= 100'000) {
            passes.push_back(
                std::make_unique<Pass>("unbounded", 2'000'000, flows));
        } else {
            std::printf("# unbounded skipped at %llu flows "
                        "(row-per-flow state would not fit)\n",
                        static_cast<unsigned long long>(flows));
        }
    }
    // Each round starts one pass later than the last, so no pass
    // always runs at the same point of a round.
    for (std::uint64_t c = 0; c < kChunks; ++c) {
        for (std::size_t i = 0; i < passes.size(); ++i)
            passes[(c + i) % passes.size()]->runChunk(records / kChunks);
    }

    std::vector<PassResult> results;
    for (const auto& p : passes)
        results.push_back(p->result());

    for (const PassResult& r : results)
        std::printf("%-10s %6d %9llu %12.1f %10llu %10llu %12llu %s\n",
                    r.mode.c_str(), r.topK,
                    static_cast<unsigned long long>(r.flows),
                    r.nsPerRecord,
                    static_cast<unsigned long long>(r.residentRows),
                    static_cast<unsigned long long>(r.labelRows),
                    static_cast<unsigned long long>(r.evictions),
                    r.conserved ? "yes" : "NO");

    if (std::FILE* f = std::fopen("obs_scale.csv", "w")) {
        std::fprintf(f, "mode,topk,flows,records,ns_per_record,"
                        "resident_rows,label_rows,evictions,"
                        "conserved\n");
        for (const PassResult& r : results) {
            std::fprintf(
                f, "%s,%d,%llu,%llu,%.2f,%llu,%llu,%llu,%d\n",
                r.mode.c_str(), r.topK,
                static_cast<unsigned long long>(r.flows),
                static_cast<unsigned long long>(r.records),
                r.nsPerRecord,
                static_cast<unsigned long long>(r.residentRows),
                static_cast<unsigned long long>(r.labelRows),
                static_cast<unsigned long long>(r.evictions),
                r.conserved ? 1 : 0);
        }
        std::fclose(f);
        std::printf("# wrote obs_scale.csv (%zu passes)\n",
                    results.size());
    }
    return 0;
}

#include "topo/machine.hpp"

#include <algorithm>

#include "obs/hub.hpp"

namespace octo::topo {

Machine::Machine(sim::Simulator& sim, const Calibration& cal,
                 std::string name)
    : sim_(sim), cal_(cal), name_(std::move(name))
{
    for (int n = 0; n < cal_.nodes; ++n) {
        llcs_.push_back(
            std::make_unique<mem::LlcModel>(cal_.llcBytes,
                                            cal_.ddioEnabled));
        drams_.push_back(std::make_unique<sim::Pipe>(
            sim_, cal_.dramGbps, 0, name_ + ".dram" + std::to_string(n)));
        for (int c = 0; c < cal_.coresPerNode; ++c) {
            const int id = n * cal_.coresPerNode + c;
            cores_.push_back(std::make_unique<Core>(sim_, id, n));
        }
    }
    // Full-mesh per-direction interconnect links, arbitrated fairly
    // per requester class.
    for (int a = 0; a < cal_.nodes; ++a) {
        for (int b = 0; b < cal_.nodes; ++b) {
            links_.push_back(std::make_unique<sim::FairPipe>(
                sim_, cal_.qpiGbps,
                name_ + ".qpi" + std::to_string(a) + std::to_string(b)));
        }
    }
    if (obs::MetricRegistry* reg = obs::metrics(sim_)) {
        // Machine-grain instruments: memory-controller traffic per node
        // and interconnect traffic + crossings per directed link. The
        // byte counters mirror the pipes' own totals via callbacks;
        // crossings need a dedicated counter (incremented in
        // memTransfer) because pipes count bytes, not operations.
        for (int n = 0; n < cal_.nodes; ++n) {
            reg->counterFn(
                "dram_bytes",
                {{"host", name_}, {"node", std::to_string(n)}},
                [p = drams_[n].get()] { return p->totalBytes(); });
        }
        obQpiCross_.resize(links_.size(), nullptr);
        for (int a = 0; a < cal_.nodes; ++a) {
            for (int b = 0; b < cal_.nodes; ++b) {
                if (a == b)
                    continue;
                const obs::Labels l = {{"host", name_},
                                       {"from", std::to_string(a)},
                                       {"to", std::to_string(b)}};
                const int idx = a * cal_.nodes + b;
                reg->counterFn(
                    "qpi_bytes", l,
                    [p = links_[idx].get()] { return p->totalBytes(); });
                obQpiCross_[idx] = &reg->counter("qpi_crossings", l);
            }
        }
    }
}

Task<Tick>
Machine::memTransfer(int agent_node, int mem_node, std::uint64_t bytes,
                     MemDir dir, double latency_scale, int fair_class)
{
    const Tick start = sim_.now();
    const Tick dram_done = dram(mem_node).reserve(bytes);
    Tick lead = cal_.dramLatency;
    if (agent_node != mem_node) {
        // The interconnect crossing is served by the fair arbiter; the
        // DRAM reservation overlaps with it.
        const int from = dir == MemDir::Read ? mem_node : agent_node;
        const int to = dir == MemDir::Read ? agent_node : mem_node;
        const int cls = fair_class >= 0 ? fair_class : 50 + agent_node;
        if (!obQpiCross_.empty())
            obQpiCross_[from * cal_.nodes + to]->add();
        co_await qpi(from, to).transfer(cls, bytes);
        lead += cal_.qpiLatency;
    }
    lead = static_cast<Tick>(lead * latency_scale);
    const Tick now = sim_.now();
    const Tick wait =
        (dram_done > now ? dram_done - now : 0) + lead;
    co_await sim::delay(sim_, wait);
    co_return sim_.now() - start;
}

Task<Tick>
Machine::cpuTouch(int cpu_node, int mem_node, std::uint64_t bytes,
                  mem::DataLoc loc)
{
    if (loc == mem::DataLoc::Llc) {
        // Survival of the cached lines depends on current LLC pressure:
        // the evicted fraction is re-fetched from DRAM.
        const double hf = llc(cpu_node).hitFraction();
        const auto miss_bytes =
            static_cast<std::uint64_t>(bytes * (1.0 - hf));
        Tick lat = cal_.llcLatency;
        if (miss_bytes > 0) {
            lat += co_await memTransfer(cpu_node, mem_node, miss_bytes,
                                        MemDir::Read);
        } else {
            co_await sim::delay(sim_, lat);
        }
        co_return lat;
    }
    const Tick lat =
        co_await memTransfer(cpu_node, mem_node, bytes, MemDir::Read);
    co_return lat;
}

void
Machine::setQpiScale(double scale)
{
    qpiScale_ = std::max(0.01, scale);
    for (int a = 0; a < cal_.nodes; ++a) {
        for (int b = 0; b < cal_.nodes; ++b) {
            if (a != b)
                qpi(a, b).setRateGbps(cal_.qpiGbps * qpiScale_);
        }
    }
    ++qpiDegradeEvents_;
}

std::uint64_t
Machine::dramBytesTotal() const
{
    std::uint64_t total = 0;
    for (const auto& d : drams_)
        total += d->totalBytes();
    return total;
}

std::uint64_t
Machine::qpiBytesTotal() const
{
    std::uint64_t total = 0;
    for (const auto& l : links_)
        total += l->totalBytes();
    return total;
}

} // namespace octo::topo

#include "chaos/oracle.hpp"

#include <cstdarg>
#include <cstdio>
#include <memory>

#include "bypass/mempool.hpp"
#include "obs/hub.hpp"
#include "os/socket.hpp"
#include "sim/simulator.hpp"

namespace octo::chaos {

namespace {

/** Gap between invariant sweeps. */
constexpr sim::Tick kPeriod = sim::fromUs(500);

/** Snapshot formatter: small, bounded, and allocation-friendly. */
std::string
fmt(const char* f, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, f);
    vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

} // namespace

Oracle::Oracle(sim::Simulator& sim) : sim_(sim)
{
    if (obs::Hub* h = obs::hub(sim_)) {
        obs::MetricRegistry& reg = h->metrics();
        reg.counterFn("chaos_oracle_checks", {},
                      [this] { return checks_; });
        reg.counterFn("chaos_oracle_violations", {},
                      [this] { return violations_; });
        tracePid_ = h->pidFor("chaos.oracle");
    }
}

void
Oracle::addInvariant(std::string name, Check check)
{
    entries_.push_back({std::move(name), std::move(check)});
}

void
Oracle::watchSocketPair(const os::Socket& client, const os::Socket& server)
{
    const os::Socket* socks[2] = {&client, &server};
    const char* side[2] = {"client", "server"};
    for (int i = 0; i < 2; ++i) {
        const os::Socket* s = socks[i];
        const os::Socket* peer = socks[1 - i];
        addInvariant(
            fmt("window_credits.%s", side[i]), [s]() -> std::string {
                const auto held = s->txWindow.count();
                if (held < 0 ||
                    held > static_cast<std::int64_t>(s->windowBytes))
                    return fmt("txWindow.count()=%lld outside "
                               "[0, windowBytes=%llu]",
                               static_cast<long long>(held),
                               static_cast<unsigned long long>(
                                   s->windowBytes));
                return {};
            });
        addInvariant(
            fmt("credit_reclaim.%s", side[i]),
            [s, peer]() -> std::string {
                // The retry worker may only return credits that a
                // recorded loss is actually holding; reclaiming more
                // would mint credits and overrun the window.
                const std::uint64_t lost =
                    s->lostTxBytes + peer->lostRxBytes;
                if (s->reclaimedBytes > lost)
                    return fmt("reclaimedBytes=%llu > lostTxBytes=%llu"
                               " + peer.lostRxBytes=%llu",
                               static_cast<unsigned long long>(
                                   s->reclaimedBytes),
                               static_cast<unsigned long long>(
                                   s->lostTxBytes),
                               static_cast<unsigned long long>(
                                   peer->lostRxBytes));
                return {};
            });
    }
}

void
Oracle::watchMempool(std::string name, const bypass::Mempool& pool,
                     int nodes)
{
    const bypass::Mempool* p = &pool;
    addInvariant(
        fmt("mempool_conservation.%s", name.c_str()),
        [p, nodes]() -> std::string {
            std::uint64_t in_use = 0;
            for (int n = 0; n < nodes; ++n) {
                if (p->inUse(n) > p->capacity(n))
                    return fmt("node %d: inUse=%llu > capacity=%llu", n,
                               static_cast<unsigned long long>(
                                   p->inUse(n)),
                               static_cast<unsigned long long>(
                                   p->capacity(n)));
                in_use += p->inUse(n);
            }
            if (p->allocs() - p->frees() != in_use)
                return fmt("allocs=%llu - frees=%llu != in_use=%llu",
                           static_cast<unsigned long long>(p->allocs()),
                           static_cast<unsigned long long>(p->frees()),
                           static_cast<unsigned long long>(in_use));
            return {};
        });
}

void
Oracle::watchChurn(std::string name,
                   std::function<std::uint64_t()> counter,
                   std::uint64_t budget)
{
    // Shared-state closure: `last` persists across sweeps.
    auto last = std::make_shared<std::uint64_t>(counter());
    addInvariant(fmt("churn.%s", name.c_str()),
                 [counter = std::move(counter), last,
                  budget]() -> std::string {
                     const std::uint64_t cur = counter();
                     const std::uint64_t delta = cur - *last;
                     *last = cur;
                     if (delta > budget)
                         return fmt("%llu events this interval > "
                                    "budget %llu (steering churn)",
                                    static_cast<unsigned long long>(
                                        delta),
                                    static_cast<unsigned long long>(
                                        budget));
                     return {};
                 });
}

void
Oracle::watchProgress(std::string name,
                      std::function<std::uint64_t()> counter,
                      sim::Tick bound, std::function<bool()> exempt)
{
    struct State
    {
        std::uint64_t last = 0;
        sim::Tick lastAdvance = 0;
    };
    auto st = std::make_shared<State>();
    st->last = counter();
    st->lastAdvance = sim_.now();
    sim::Simulator* sim = &sim_;
    addInvariant(
        fmt("progress.%s", name.c_str()),
        [counter = std::move(counter), exempt = std::move(exempt), st,
         bound, sim]() -> std::string {
            const std::uint64_t cur = counter();
            const sim::Tick now = sim->now();
            if (cur != st->last || (exempt && exempt())) {
                // An exempt interval restarts the clock: progress is
                // only owed once a path exists again.
                st->last = cur;
                st->lastAdvance = now;
                return {};
            }
            if (now - st->lastAdvance <= bound)
                return {};
            const sim::Tick stuck = now - st->lastAdvance;
            st->lastAdvance = now; // don't re-fire every sweep
            return fmt("no advance for %.0f us (bound %.0f us), "
                       "count stuck at %llu with no exemption",
                       sim::toUs(stuck), sim::toUs(bound),
                       static_cast<unsigned long long>(cur));
        });
}

void
Oracle::start()
{
    if (started_)
        return;
    started_ = true;
    tick_ = sim_.schedulePeriodic(kPeriod, kPeriod, [this] { sweep(); });
}

Oracle::~Oracle() { sim_.release(tick_); }

int
Oracle::sweep()
{
    int found = 0;
    for (const Entry& e : entries_) {
        ++checks_;
        const std::string snap = e.check();
        if (snap.empty())
            continue;
        ++found;
        report(e, snap);
    }
    return found;
}

void
Oracle::report(const Entry& e, const std::string& snapshot)
{
    ++violations_;
    log_.push_back({e.name, snapshot, sim_.now()});
    if (auto* tr = obs::tracer(sim_, obs::kCatHealth)) {
        tr->instant(obs::kCatHealth, "oracle_violation", tracePid_, 0,
                    sim_.now(),
                    {{"invariant", e.name}, {"snapshot", snapshot}});
    }
}

} // namespace octo::chaos

#include "obs/sampler.hpp"

#include <utility>

#include "sim/stats.hpp"

namespace octo::obs {

namespace {

/** Deterministic double formatting shared by JSON and CSV export. */
void
appendDouble(std::string& out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += buf;
}

void
appendMs(std::string& out, double ms)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", ms);
    out += buf;
}

void
appendU64(std::string& out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

} // namespace

const char*
sampleUnitName(SampleUnit u)
{
    switch (u) {
      case SampleUnit::Gbps:
        return "gbps";
      case SampleUnit::PerSec:
        return "per_s";
      case SampleUnit::Value:
        return "value";
    }
    return "value";
}

RunData&
Report::addRun(std::string run, sim::Tick start_at, sim::Tick period)
{
    runs_.emplace_back();
    RunData& r = runs_.back();
    r.run = std::move(run);
    r.startAt = start_at;
    r.period = period;
    return r;
}

std::string
Report::jsonText() const
{
    bool v2 = false;
    for (const RunData& r : runs_)
        v2 = v2 || !r.regionSamples.empty();
    std::string out = "{\"schema\":\"";
    out += v2 ? "octo.report.v2" : "octo.report.v1";
    out += "\",\"runs\":[";
    bool first_run = true;
    for (const RunData& r : runs_) {
        if (!first_run)
            out += ',';
        first_run = false;
        out += "\n{\"run\":\"";
        out += r.run;
        out += "\",\"period_us\":";
        appendDouble(out, sim::toUs(r.period));
        out += ",\"start_ms\":";
        appendMs(out, sim::toMs(r.startAt));
        out += ",\"time_ms\":[";
        for (std::size_t i = 0; i < r.timesMs.size(); ++i) {
            if (i > 0)
                out += ',';
            appendMs(out, r.timesMs[i]);
        }
        out += "],\"series\":[";
        bool first_series = true;
        for (const SeriesData& s : r.series) {
            if (!first_series)
                out += ',';
            first_series = false;
            out += "\n{\"name\":\"";
            out += s.name;
            out += "\",\"unit\":\"";
            out += sampleUnitName(s.unit);
            out += "\",\"values\":[";
            for (std::size_t i = 0; i < s.values.size(); ++i) {
                if (i > 0)
                    out += ',';
                appendDouble(out, s.values[i]);
            }
            out += "]}";
        }
        out += ']';
        if (!r.regionSamples.empty()) {
            out += ",\"regions\":{\"dev\":\"";
            out += r.regionsDev;
            out += "\",\"samples\":[";
            bool first_snap = true;
            for (const RegionSampleData& snap : r.regionSamples) {
                if (!first_snap)
                    out += ',';
                first_snap = false;
                out += "\n{\"time_ms\":";
                appendMs(out, snap.timeMs);
                out += ",\"rows\":[";
                for (std::size_t i = 0; i < snap.rows.size(); ++i) {
                    const RegionRowData& row = snap.rows[i];
                    if (i > 0)
                        out += ',';
                    out += "{\"lo\":";
                    appendU64(out, row.lo);
                    out += ",\"hi\":";
                    appendU64(out, row.hi);
                    out += ",\"rate_gbps\":";
                    appendDouble(out, row.rateGbps);
                    out += ",\"age\":";
                    appendU64(out, row.age);
                    out += '}';
                }
                out += "]}";
            }
            out += "]}";
        }
        out += '}';
    }
    out += "]}";
    return out;
}

void
Report::writeCsv(std::FILE* out) const
{
    std::fprintf(out, "run,series,unit,time_ms,value\n");
    for (const RunData& r : runs_) {
        for (const SeriesData& s : r.series) {
            for (std::size_t i = 0; i < s.values.size(); ++i) {
                std::fprintf(out, "%s,%s,%s,%.3f,%.9g\n", r.run.c_str(),
                             s.name.c_str(), sampleUnitName(s.unit),
                             i < r.timesMs.size() ? r.timesMs[i] : 0.0,
                             s.values[i]);
            }
        }
        // Region snapshots export long-format too: one row per region
        // per interval, series keyed by the region's range start (its
        // identity for as long as no split/merge moves the boundary).
        for (const RegionSampleData& snap : r.regionSamples) {
            for (const RegionRowData& row : snap.rows) {
                std::fprintf(out, "%s,region:%llu,gbps,%.3f,%.9g\n",
                             r.run.c_str(),
                             static_cast<unsigned long long>(row.lo),
                             snap.timeMs, row.rateGbps);
            }
        }
    }
}

bool
Report::writeJsonFile(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string doc = jsonText();
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    return std::fclose(f) == 0 && ok;
}

bool
Report::writeCsvFile(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    writeCsv(f);
    return std::fclose(f) == 0;
}

Sampler::Sampler(sim::Simulator& sim, Hub& hub, Report& report,
                 sim::Tick period, const std::string& track_process)
    : sim_(sim), hub_(hub), report_(report),
      period_(period > 0 ? period : kDefaultPeriod),
      trackProcess_(track_process)
{
}

void
Sampler::watchRate(std::string name, Probe probe, SampleUnit unit)
{
    Watch w;
    w.name = std::move(name);
    w.unit = unit;
    w.probe = std::move(probe);
    watches_.push_back(std::move(w));
}

void
Sampler::watchGauge(std::string name, GaugeProbe probe)
{
    Watch w;
    w.name = std::move(name);
    w.unit = SampleUnit::Value;
    w.gauge = std::move(probe);
    watches_.push_back(std::move(w));
}

void
Sampler::start()
{
    pid_ = hub_.pidFor(trackProcess_);
    data_ = &report_.addRun(hub_.run(), sim_.now(), period_);
    for (Watch& w : watches_) {
        if (w.probe)
            w.prev = w.probe();
        SeriesData s;
        s.name = w.name;
        s.unit = w.unit;
        data_->series.push_back(std::move(s));
    }
    // Drift-free cadence on a single pooled slot; replaces the old
    // delay-loop coroutine (one parked frame per sampler).
    sim_.release(tick_);
    tick_ = sim_.schedulePeriodic(period_, period_,
                                  [this] { sampleOnce(sim_.now()); });
}

Sampler::~Sampler() { sim_.release(tick_); }

void
Sampler::sampleOnce(sim::Tick now)
{
    Tracer* tr = hub_.tracer().wants(kCatCounter) ? &hub_.tracer()
                                                  : nullptr;
    data_->timesMs.push_back(sim::toMs(now));
    for (std::size_t i = 0; i < watches_.size(); ++i) {
        Watch& w = watches_[i];
        double value = 0;
        if (w.gauge) {
            value = w.gauge();
        } else {
            const std::uint64_t cur = w.probe();
            const std::uint64_t delta = cur - w.prev;
            w.prev = cur;
            value = w.unit == SampleUnit::Gbps
                        ? sim::toGbps(delta, period_)
                        : static_cast<double>(delta) *
                              (static_cast<double>(sim::kTickPerSec) /
                               static_cast<double>(period_));
        }
        data_->series[i].values.push_back(value);
        if (tr != nullptr)
            tr->counter(kCatCounter, w.name.c_str(), pid_, now, value);
    }
    ++samples_;
}

} // namespace octo::obs

/**
 * @file
 * Continuous telemetry: a simulator-scheduled periodic sampler that
 * turns cumulative instruments into time-resolved curves.
 *
 * The Sampler runs a coroutine on a fixed sim-time cadence (default
 * 1 ms). Each tick it reads its watches — cumulative counter probes
 * (rates derived per window, Gb/s or events/s) and point-in-time
 * gauge probes — then:
 *
 *  - emits one Perfetto counter-track event ("ph":"C") per watch, so
 *    every curve scrubs in the Perfetto UI next to the span lanes the
 *    Tracer already records, and
 *  - appends the same value to an in-memory time series owned by a
 *    Report, exportable as `report.json` (schema `octo.report.v1`)
 *    and long-format CSV after the run.
 *
 * Sampling is read-only: probes only read model counters and the
 * tracer append never awaits or schedules model work, so simulated
 * results are bit-identical with the sampler on or off (pinned by
 * tests/obs/test_sampler.cpp). One Report accumulates several runs
 * (presets) against one hub; the Sampler is per-run and must be
 * destroyed before the simulator it schedules on (declare it after
 * the Testbed in bench scope).
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace octo::obs {

/** How a watch's raw reading becomes the exported sample value. */
enum class SampleUnit
{
    Gbps,   ///< Cumulative bytes probe -> per-window Gb/s.
    PerSec, ///< Cumulative events probe -> per-window events/s.
    Value,  ///< Gauge probe -> the value itself, untransformed.
};

const char* sampleUnitName(SampleUnit u);

/** One sampled curve of one run: parallel to the run's time axis. */
struct SeriesData
{
    std::string name;
    SampleUnit unit;
    std::vector<double> values;
};

/** One region row of one access-monitor interval snapshot. */
struct RegionRowData
{
    std::uint64_t lo = 0; ///< Flow-hash range, inclusive.
    std::uint64_t hi = 0;
    double rateGbps = 0;
    std::uint32_t age = 0; ///< Intervals since last split/merge.
};

/** One access-monitor aggregation interval: the region map snapshot.
 *  accmon::AccessMonitor stores its snapshots in this type, so a bench
 *  hands them to the report as they are. */
struct RegionSampleData
{
    double timeMs = 0;
    std::vector<RegionRowData> rows;
};

/** All curves of one bench pass (one preset against the shared hub). */
struct RunData
{
    std::string run;
    sim::Tick startAt = 0;
    sim::Tick period = 0;
    std::vector<double> timesMs; ///< Window-end timestamps.
    std::vector<SeriesData> series;

    /** Region-monitor snapshots harvested after the run (empty unless
     *  an accmon::AccessMonitor was attached). Non-empty samples bump
     *  the document schema to `octo.report.v2`. */
    std::string regionsDev;
    std::vector<RegionSampleData> regionSamples;
};

/**
 * The accumulated time series of a bench invocation. Plain data — no
 * simulator references — so it survives testbed teardown and exports
 * after all runs complete.
 */
class Report
{
  public:
    Report() = default;
    Report(const Report&) = delete;
    Report& operator=(const Report&) = delete;

    RunData& addRun(std::string run, sim::Tick start_at,
                    sim::Tick period);

    const std::vector<RunData>& runs() const { return runs_; }

    /** The most recently added run (for post-run region harvest);
     *  nullptr before the first addRun(). */
    RunData* lastRun()
    {
        return runs_.empty() ? nullptr : &runs_.back();
    }

    /** The document as JSON, deterministic byte-for-byte across
     *  identical runs. Schema is `octo.report.v1` unless some run
     *  carries region snapshots, which adds a `regions` section per
     *  such run and bumps the schema to `octo.report.v2`. */
    std::string jsonText() const;

    /** Long-format CSV: run,series,unit,time_ms,value. */
    void writeCsv(std::FILE* out) const;

    bool writeJsonFile(const std::string& path) const;
    bool writeCsvFile(const std::string& path) const;

  private:
    std::vector<RunData> runs_;
};

/**
 * The periodic sampling task. Register watches, then start(); every
 * period it appends one sample per watch to the Report run and emits
 * the matching counter-track event.
 */
class Sampler
{
  public:
    static constexpr sim::Tick kDefaultPeriod = sim::fromUs(1000);

    using Probe = std::function<std::uint64_t()>;
    using GaugeProbe = std::function<double()>;

    /** @p track_process names the Perfetto process grouping the
     *  counter tracks (pid via hub.pidFor, so it is run-prefixed). */
    Sampler(sim::Simulator& sim, Hub& hub, Report& report,
            sim::Tick period = kDefaultPeriod,
            const std::string& track_process = "telemetry");

    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;
    ~Sampler();

    /** Watch a cumulative counter; exported as a per-window rate. */
    void watchRate(std::string name, Probe probe,
                   SampleUnit unit = SampleUnit::Gbps);

    /** Watch a point-in-time value (weights, states, fractions). */
    void watchGauge(std::string name, GaugeProbe probe);

    /** Capture baselines and begin the periodic task. */
    void start();

    sim::Tick period() const { return period_; }
    std::size_t watchCount() const { return watches_.size(); }
    std::size_t sampleCount() const { return samples_; }

  private:
    struct Watch
    {
        std::string name;
        SampleUnit unit;
        Probe probe;          ///< Rate watches.
        GaugeProbe gauge;     ///< Gauge watches.
        std::uint64_t prev = 0;
    };

    void sampleOnce(sim::Tick now);

    sim::Simulator& sim_;
    Hub& hub_;
    Report& report_;
    sim::Tick period_;
    std::string trackProcess_;
    int pid_ = 0;
    std::vector<Watch> watches_;
    RunData* data_ = nullptr;
    std::size_t samples_ = 0;
    sim::EventRef tick_; ///< Periodic sampling cadence (one slot).
};

} // namespace octo::obs

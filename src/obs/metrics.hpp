/**
 * @file
 * The metric registry: named, labeled instruments shared by every layer.
 *
 * Three instrument kinds cover the models' needs:
 *
 *  - **Counter**: a monotonically increasing u64 (bytes DMAed, frames
 *    steered, verdicts applied). A *callback* counter mirrors an
 *    existing cumulative model counter (a Pipe's totalBytes) without
 *    double bookkeeping.
 *  - **Gauge**: a point-in-time double (steering weight, bandwidth
 *    fraction), also available in callback form.
 *  - **Histogram**: log-bucketed distribution with p50/p90/p99 queries
 *    (DMA latencies, softirq batch sizes). Buckets grow geometrically —
 *    kSubBuckets per octave — so percentile error is bounded by the
 *    bucket ratio (~19% with 4 sub-buckets) across the full range.
 *
 * Instruments are identified by (name, labels); re-registering the same
 * identity returns the existing instrument, so call sites can register
 * eagerly at construction. The registry owns the instruments it
 * creates; pointers stay valid for its lifetime (call sites cache them —
 * the zero-overhead-when-off discipline is a null check, not a map
 * lookup). A CounterFamily's rows are the exception: their owner keeps
 * them, and the registry reads them on demand.
 *
 * Snapshots export as Prometheus text (deterministic ordering) or CSV.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace octo::obs {

/** Label set: key/value pairs, canonicalized (sorted by key) by the
 *  registry so label order at the call site never matters. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonic counter; callback-backed when registered via counterFn. */
class Counter
{
  public:
    void add(std::uint64_t d = 1) { v_ += d; }

    std::uint64_t value() const { return fn_ ? fn_() : v_; }

  private:
    friend class MetricRegistry;
    std::uint64_t v_ = 0;
    std::function<std::uint64_t()> fn_;
};

/**
 * A model's own hot-path count: one cell, add() to bump it and total()
 * to read it. It is not a registry instrument; the owner exports it as
 * a callback counter reading total().
 */
class Tally
{
  public:
    void add(std::uint64_t d = 1) { v_ += d; }
    std::uint64_t total() const { return v_; }

  private:
    std::uint64_t v_ = 0;
};

/** Point-in-time value; callback-backed when registered via gaugeFn. */
class Gauge
{
  public:
    void set(double v) { v_ = v; }
    void add(double d) { v_ += d; }

    double value() const { return fn_ ? fn_() : v_; }

  private:
    friend class MetricRegistry;
    double v_ = 0;
    std::function<double()> fn_;
};

/**
 * Log-bucketed histogram over non-negative values.
 *
 * Bucket i covers [2^(i/kSubBuckets), 2^((i+1)/kSubBuckets)); zeros get
 * a dedicated bucket. Percentiles interpolate geometrically inside the
 * selected bucket, and exact min/max/sum/count ride alongside.
 */
class Histogram
{
  public:
    static constexpr int kSubBuckets = 4; ///< Buckets per octave.
    static constexpr int kBuckets = 64 * kSubBuckets;

    Histogram() : buckets_(kBuckets, 0) {}

    void record(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ > 0 ? min_ : 0.0; }
    double max() const { return count_ > 0 ? max_ : 0.0; }
    double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

    /** Value at percentile @p p in [0, 100]; 0 when empty. */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }

    /** Upper bound of bucket @p i (exporter support). */
    static double bucketUpper(int i);

    std::uint64_t zeroCount() const { return zero_; }
    std::uint64_t bucketCount(int i) const { return buckets_.at(i); }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t zero_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/** Instrument kind tag (lookup and export). */
enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/**
 * Counter rows kept by their owner instead of the registry: row i is
 * the label value rowLabel(i) of one row key, and holds one Counter
 * per column name given at MetricRegistry::addFamily. DmaAccountant's
 * sketch cells are one, so admitting or evicting a flow touches no
 * registry state; the registry reads the rows when it is queried.
 */
class CounterFamily
{
  public:
    virtual std::size_t rows() const = 0;
    virtual const std::string& rowLabel(std::size_t row) const = 0;
    virtual const Counter& cell(std::size_t row,
                                std::size_t column) const = 0;

  protected:
    ~CounterFamily() = default;
};

/**
 * The registry. One per obs::Hub; every layer registers into it.
 *
 * Base labels (setBaseLabels) are stamped onto instruments created
 * *after* the call — benches set {"run": preset} per pass so several
 * testbed runs land as distinct label sets in one export.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry&) = delete;
    MetricRegistry& operator=(const MetricRegistry&) = delete;

    Counter& counter(const std::string& name, Labels labels = {});
    Counter& counterFn(const std::string& name, Labels labels,
                       std::function<std::uint64_t()> fn);
    Gauge& gauge(const std::string& name, Labels labels = {});
    Gauge& gaugeFn(const std::string& name, Labels labels,
                   std::function<double()> fn);
    Histogram& histogram(const std::string& name, Labels labels = {});

    /**
     * Attach @p family: counter series (name, labels + {row_key, row
     * label}) for every column name in @p names and every row the
     * family holds at the time of a read. Base labels are stamped onto
     * @p labels now. Every read below sees the rows exactly as it sees
     * stored counters, in the same sorted order, and findCounter
     * returns the family's own Counter, valid until the owner next
     * changes its rows. The owner calls removeFamily before it dies;
     * freeze() first turns the rows into stored counters.
     */
    void addFamily(const CounterFamily& family,
                   std::vector<std::string> names, std::string row_key,
                   Labels labels);
    void removeFamily(const CounterFamily& family);

    /** Lookup without creating; null when absent or kind-mismatched.
     *  Matches against the full label set including any base labels
     *  that were active when the instrument was registered. */
    const Counter* findCounter(const std::string& name,
                               const Labels& labels = {}) const;
    const Gauge* findGauge(const std::string& name,
                           const Labels& labels = {}) const;
    const Histogram* findHistogram(const std::string& name,
                                   const Labels& labels = {}) const;

    /** Series count: stored instruments plus every family cell. */
    std::size_t size() const;

    /**
     * Snapshot every callback-backed counter/gauge into a plain stored
     * value and drop the callback, and every family row into stored
     * counters, detaching the family. Call before destroying the model
     * the callbacks read from (benches: end of each testbed run) so a
     * later export never chases dangling pointers.
     */
    void freeze();

    /** Labels stamped onto subsequently registered instruments. */
    void setBaseLabels(Labels base) { base_ = std::move(base); }

    /** Prometheus text exposition (sorted, deterministic). */
    void writePrometheus(std::FILE* out) const;
    std::string prometheusText() const;

    /** CSV snapshot: name,labels,kind,value rows (histograms expand to
     *  count/sum/p50/p90/p99). */
    void writeCsv(std::FILE* out) const;

    /** Visit every instrument (sorted identity order). */
    void forEach(const std::function<void(const std::string& name,
                                          const Labels& labels,
                                          MetricKind kind)>& fn) const;

    /** Sum of every counter named @p name whose labels include all of
     *  @p match (acceptance queries: locality split per device). */
    std::uint64_t sumCounters(const std::string& name,
                              const Labels& match = {}) const;

  private:
    struct Entry
    {
        std::string name;
        Labels labels;
        MetricKind kind;
        std::unique_ptr<Counter> c;
        std::unique_ptr<Gauge> g;
        std::unique_ptr<Histogram> h;
    };

    struct Family
    {
        const CounterFamily* rows;
        std::vector<std::string> names;
        std::string rowKey;
        Labels labels; ///< Canonical, without the row key.
    };

    /** One series as the exporters see it: a stored entry or a family
     *  cell (c set, g and h null). */
    struct Series
    {
        const std::string& name;
        const Labels& labels;
        MetricKind kind;
        const Counter* c;
        const Gauge* g;
        const Histogram* h;
    };

    Entry& entry(const std::string& name, Labels labels, MetricKind kind);
    /** entry() for labels already stamped and canonical. */
    Entry& entryAt(const std::string& name, Labels labels,
                   MetricKind kind);
    const Entry* find(const std::string& name, const Labels& labels,
                      MetricKind kind) const;

    /** Visit stored entries and family cells merged in key order. */
    template <typename Fn> void visit(Fn&& fn) const;

    /** Full canonical label set of @p family's row @p row. */
    static Labels rowLabels(const Family& family, std::size_t row);

    /** Call @p fn(cell, label count) for every family cell of counter
     *  @p name whose labels include all of @p match, reading no other
     *  family's rows and formatting no key. */
    template <typename Fn>
    void familyCells(const std::string& name, const Labels& match,
                     Fn&& fn) const;

    /** Stamp base labels (keys not already present) and canonicalize —
     *  the identity transformation entry() applies at registration. */
    Labels stamped(Labels labels) const;

    static Labels canonical(Labels l);
    static std::string key(const std::string& name, const Labels& l);

    std::map<std::string, Entry> entries_;
    std::vector<Family> families_;
    Labels base_;
};

} // namespace octo::obs

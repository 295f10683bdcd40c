#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace octo::obs {

// --------------------------------------------------------------- Histogram

void
Histogram::record(double v)
{
    ++count_;
    sum_ += v;
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    if (v < 1.0) {
        // Sub-unit values (including zero) share the underflow bucket;
        // the instruments record ticks/bytes/counts, where < 1 means
        // "effectively zero".
        ++zero_;
        return;
    }
    const int idx = static_cast<int>(std::floor(std::log2(v) *
                                                kSubBuckets));
    ++buckets_.at(std::clamp(idx, 0, kBuckets - 1));
}

double
Histogram::bucketUpper(int i)
{
    return std::exp2(static_cast<double>(i + 1) / kSubBuckets);
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank of the target observation (1-based, nearest-rank method).
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    std::uint64_t seen = zero_;
    if (rank <= seen)
        return 0.0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (rank <= seen) {
            // Geometric midpoint of the bucket, clamped to the observed
            // extremes so single-bucket distributions stay exact-ish.
            const double lo = std::exp2(static_cast<double>(i) /
                                        kSubBuckets);
            const double hi = bucketUpper(i);
            return std::clamp(std::sqrt(lo * hi), min_, max_);
        }
    }
    return max_;
}

// --------------------------------------------------------- MetricRegistry

Labels
MetricRegistry::canonical(Labels l)
{
    std::sort(l.begin(), l.end());
    return l;
}

std::string
MetricRegistry::key(const std::string& name, const Labels& l)
{
    std::string k = name;
    k += '{';
    for (const auto& [lk, lv] : l) {
        k += lk;
        k += '=';
        k += lv;
        k += ',';
    }
    k += '}';
    return k;
}

Labels
MetricRegistry::stamped(Labels labels) const
{
    for (const auto& b : base_) {
        const bool present =
            std::any_of(labels.begin(), labels.end(),
                        [&](const auto& p) { return p.first == b.first; });
        if (!present)
            labels.push_back(b);
    }
    return canonical(std::move(labels));
}

MetricRegistry::Entry&
MetricRegistry::entry(const std::string& name, Labels labels,
                      MetricKind kind)
{
    return entryAt(name, stamped(std::move(labels)), kind);
}

MetricRegistry::Entry&
MetricRegistry::entryAt(const std::string& name, Labels labels,
                        MetricKind kind)
{
    const std::string k = key(name, labels);
    auto it = entries_.find(k);
    if (it == entries_.end()) {
        Entry e;
        e.name = name;
        e.labels = labels;
        e.kind = kind;
        switch (kind) {
          case MetricKind::Counter:
            e.c = std::make_unique<Counter>();
            break;
          case MetricKind::Gauge:
            e.g = std::make_unique<Gauge>();
            break;
          case MetricKind::Histogram:
            e.h = std::make_unique<Histogram>();
            break;
        }
        it = entries_.emplace(k, std::move(e)).first;
    }
    assert(it->second.kind == kind && "metric re-registered as a "
                                      "different kind");
    return it->second;
}

Counter&
MetricRegistry::counter(const std::string& name, Labels labels)
{
    return *entry(name, std::move(labels), MetricKind::Counter).c;
}

Counter&
MetricRegistry::counterFn(const std::string& name, Labels labels,
                          std::function<std::uint64_t()> fn)
{
    Counter& c = counter(name, std::move(labels));
    c.fn_ = std::move(fn);
    return c;
}

Gauge&
MetricRegistry::gauge(const std::string& name, Labels labels)
{
    return *entry(name, std::move(labels), MetricKind::Gauge).g;
}

Gauge&
MetricRegistry::gaugeFn(const std::string& name, Labels labels,
                        std::function<double()> fn)
{
    Gauge& g = gauge(name, std::move(labels));
    g.fn_ = std::move(fn);
    return g;
}

Histogram&
MetricRegistry::histogram(const std::string& name, Labels labels)
{
    return *entry(name, std::move(labels), MetricKind::Histogram).h;
}

void
MetricRegistry::addFamily(const CounterFamily& family,
                          std::vector<std::string> names,
                          std::string row_key, Labels labels)
{
    families_.push_back(Family{&family, std::move(names),
                               std::move(row_key),
                               stamped(std::move(labels))});
}

void
MetricRegistry::removeFamily(const CounterFamily& family)
{
    std::erase_if(families_, [&family](const Family& f) {
        return f.rows == &family;
    });
}

std::size_t
MetricRegistry::size() const
{
    std::size_t n = entries_.size();
    for (const Family& f : families_)
        n += f.rows->rows() * f.names.size();
    return n;
}

Labels
MetricRegistry::rowLabels(const Family& family, std::size_t row)
{
    Labels l = family.labels;
    l.emplace_back(family.rowKey, family.rows->rowLabel(row));
    return canonical(std::move(l));
}

template <typename Fn>
void
MetricRegistry::familyCells(const std::string& name, const Labels& match,
                            Fn&& fn) const
{
    for (const Family& f : families_) {
        const auto col = std::find(f.names.begin(), f.names.end(), name);
        if (col == f.names.end())
            continue;
        const std::string* row_label = nullptr;
        bool ok = true;
        for (const auto& m : match) {
            if (m.first == f.rowKey)
                row_label = &m.second;
            else if (std::find(f.labels.begin(), f.labels.end(), m) ==
                     f.labels.end())
                ok = false;
        }
        if (!ok)
            continue;
        for (std::size_t i = 0; i < f.rows->rows(); ++i) {
            if (row_label == nullptr || f.rows->rowLabel(i) == *row_label)
                fn(f.rows->cell(i, static_cast<std::size_t>(
                                       col - f.names.begin())),
                   f.labels.size() + 1);
        }
    }
}

const MetricRegistry::Entry*
MetricRegistry::find(const std::string& name, const Labels& labels,
                     MetricKind kind) const
{
    auto it = entries_.find(key(name, canonical(labels)));
    if (it == entries_.end() || it->second.kind != kind)
        return nullptr;
    return &it->second;
}

const Counter*
MetricRegistry::findCounter(const std::string& name,
                            const Labels& labels) const
{
    if (const Entry* e = find(name, labels, MetricKind::Counter))
        return e->c.get();
    // A cell matches exactly when it carries all of @p labels and no
    // other label.
    const Counter* found = nullptr;
    familyCells(name, labels,
                [&](const Counter& c, std::size_t label_count) {
                    if (found == nullptr && label_count == labels.size())
                        found = &c;
                });
    return found;
}

const Gauge*
MetricRegistry::findGauge(const std::string& name,
                          const Labels& labels) const
{
    const Entry* e = find(name, labels, MetricKind::Gauge);
    return e != nullptr ? e->g.get() : nullptr;
}

const Histogram*
MetricRegistry::findHistogram(const std::string& name,
                              const Labels& labels) const
{
    const Entry* e = find(name, labels, MetricKind::Histogram);
    return e != nullptr ? e->h.get() : nullptr;
}

namespace {

std::string
promLabels(const Labels& l, const char* extra_key = nullptr,
           const char* extra_val = nullptr)
{
    if (l.empty() && extra_key == nullptr)
        return {};
    std::string s = "{";
    bool first = true;
    for (const auto& [k, v] : l) {
        if (!first)
            s += ',';
        first = false;
        s += k;
        s += "=\"";
        s += v;
        s += '"';
    }
    if (extra_key != nullptr) {
        if (!first)
            s += ',';
        s += extra_key;
        s += "=\"";
        s += extra_val;
        s += '"';
    }
    s += '}';
    return s;
}

const char*
kindName(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

} // namespace

template <typename Fn>
void
MetricRegistry::visit(Fn&& fn) const
{
    // Family cells get the key a stored counter with the same name and
    // labels would have, so one merge of two sorted sequences yields
    // the order a single std::map of everything would iterate in.
    struct Cell
    {
        std::string key;
        const Family* family;
        std::size_t row;
        std::size_t col;
    };
    std::vector<Cell> cells;
    for (const Family& f : families_) {
        for (std::size_t i = 0; i < f.rows->rows(); ++i) {
            const Labels l = rowLabels(f, i);
            for (std::size_t col = 0; col < f.names.size(); ++col)
                cells.push_back(Cell{key(f.names[col], l), &f, i, col});
        }
    }
    std::sort(cells.begin(), cells.end(),
              [](const Cell& a, const Cell& b) { return a.key < b.key; });

    auto it = entries_.begin();
    auto cell = cells.begin();
    while (it != entries_.end() || cell != cells.end()) {
        if (cell == cells.end() ||
            (it != entries_.end() && it->first < cell->key)) {
            const Entry& e = it->second;
            fn(Series{e.name, e.labels, e.kind, e.c.get(), e.g.get(),
                      e.h.get()});
            ++it;
        } else {
            const Family& f = *cell->family;
            const Labels l = rowLabels(f, cell->row);
            fn(Series{f.names[cell->col], l, MetricKind::Counter,
                      &f.rows->cell(cell->row, cell->col), nullptr,
                      nullptr});
            ++cell;
        }
    }
}

void
MetricRegistry::writePrometheus(std::FILE* out) const
{
    // Series arrive sorted by full key, so all series of one metric
    // name are contiguous: one # TYPE line per name.
    std::string last_name;
    visit([&](const Series& e) {
        if (e.name != last_name) {
            std::fprintf(out, "# TYPE %s %s\n", e.name.c_str(),
                         kindName(e.kind));
            last_name = e.name;
        }
        switch (e.kind) {
          case MetricKind::Counter:
            std::fprintf(out, "%s%s %llu\n", e.name.c_str(),
                         promLabels(e.labels).c_str(),
                         static_cast<unsigned long long>(e.c->value()));
            break;
          case MetricKind::Gauge:
            std::fprintf(out, "%s%s %.9g\n", e.name.c_str(),
                         promLabels(e.labels).c_str(), e.g->value());
            break;
          case MetricKind::Histogram: {
            const Histogram& h = *e.h;
            std::uint64_t cum = h.zeroCount();
            // The zero/underflow bucket surfaces under le="1".
            std::fprintf(out, "%s_bucket%s %llu\n", e.name.c_str(),
                         promLabels(e.labels, "le", "1").c_str(),
                         static_cast<unsigned long long>(cum));
            for (int i = 0; i < Histogram::kBuckets; ++i) {
                if (h.bucketCount(i) == 0)
                    continue;
                cum += h.bucketCount(i);
                char upper[32];
                std::snprintf(upper, sizeof upper, "%.9g",
                              Histogram::bucketUpper(i));
                std::fprintf(out, "%s_bucket%s %llu\n", e.name.c_str(),
                             promLabels(e.labels, "le", upper).c_str(),
                             static_cast<unsigned long long>(cum));
            }
            std::fprintf(out, "%s_bucket%s %llu\n", e.name.c_str(),
                         promLabels(e.labels, "le", "+Inf").c_str(),
                         static_cast<unsigned long long>(h.count()));
            std::fprintf(out, "%s_sum%s %.9g\n", e.name.c_str(),
                         promLabels(e.labels).c_str(), h.sum());
            std::fprintf(out, "%s_count%s %llu\n", e.name.c_str(),
                         promLabels(e.labels).c_str(),
                         static_cast<unsigned long long>(h.count()));
            break;
          }
        }
    });
}

std::string
MetricRegistry::prometheusText() const
{
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    if (mem == nullptr)
        return {};
    writePrometheus(mem);
    std::fclose(mem);
    std::string s(buf, len);
    std::free(buf);
    return s;
}

void
MetricRegistry::freeze()
{
    for (auto& [k, e] : entries_) {
        if (e.kind == MetricKind::Counter && e.c->fn_) {
            e.c->v_ = e.c->fn_();
            e.c->fn_ = nullptr;
        } else if (e.kind == MetricKind::Gauge && e.g->fn_) {
            e.g->v_ = e.g->fn_();
            e.g->fn_ = nullptr;
        }
    }
    for (const Family& f : families_) {
        for (std::size_t i = 0; i < f.rows->rows(); ++i) {
            const Labels l = rowLabels(f, i);
            for (std::size_t col = 0; col < f.names.size(); ++col) {
                entryAt(f.names[col], l, MetricKind::Counter)
                    .c->add(f.rows->cell(i, col).value());
            }
        }
    }
    families_.clear();
}

void
MetricRegistry::writeCsv(std::FILE* out) const
{
    std::fprintf(out, "metric,labels,kind,value\n");
    visit([&](const Series& e) {
        std::string ls;
        for (const auto& [lk, lv] : e.labels) {
            if (!ls.empty())
                ls += ';';
            ls += lk;
            ls += '=';
            ls += lv;
        }
        switch (e.kind) {
          case MetricKind::Counter:
            std::fprintf(out, "%s,%s,counter,%llu\n", e.name.c_str(),
                         ls.c_str(),
                         static_cast<unsigned long long>(e.c->value()));
            break;
          case MetricKind::Gauge:
            std::fprintf(out, "%s,%s,gauge,%.9g\n", e.name.c_str(),
                         ls.c_str(), e.g->value());
            break;
          case MetricKind::Histogram:
            std::fprintf(out, "%s_count,%s,histogram,%llu\n",
                         e.name.c_str(), ls.c_str(),
                         static_cast<unsigned long long>(e.h->count()));
            std::fprintf(out, "%s_sum,%s,histogram,%.9g\n",
                         e.name.c_str(), ls.c_str(), e.h->sum());
            std::fprintf(out, "%s_p50,%s,histogram,%.9g\n",
                         e.name.c_str(), ls.c_str(), e.h->p50());
            std::fprintf(out, "%s_p90,%s,histogram,%.9g\n",
                         e.name.c_str(), ls.c_str(), e.h->p90());
            std::fprintf(out, "%s_p99,%s,histogram,%.9g\n",
                         e.name.c_str(), ls.c_str(), e.h->p99());
            break;
        }
    });
}

void
MetricRegistry::forEach(
    const std::function<void(const std::string&, const Labels&,
                             MetricKind)>& fn) const
{
    visit([&fn](const Series& e) { fn(e.name, e.labels, e.kind); });
}

std::uint64_t
MetricRegistry::sumCounters(const std::string& name,
                            const Labels& match) const
{
    std::uint64_t total = 0;
    for (const auto& [k, e] : entries_) {
        if (e.name != name || e.kind != MetricKind::Counter)
            continue;
        bool ok = true;
        for (const auto& m : match) {
            const bool found =
                std::any_of(e.labels.begin(), e.labels.end(),
                            [&](const auto& p) { return p == m; });
            if (!found) {
                ok = false;
                break;
            }
        }
        if (ok)
            total += e.c->value();
    }
    familyCells(name, match, [&total](const Counter& c, std::size_t) {
        total += c.value();
    });
    return total;
}

} // namespace octo::obs

/**
 * @file
 * MetricsRegistry: a unified registry of named counters, gauges, and
 * histograms replacing ad-hoc statistics fields as the machine-readable
 * view of a run. The serving engine's registry is the only store of its
 * statistics (its KV pools count in it too), registered at construction
 * and updated at event sites; unlike tracing, metrics are always on —
 * every update is one arithmetic op, cheap enough for the hot path.
 *
 *  - Counter: int64 event count (evictions, prefix hits, truncates, ...).
 *  - Gauge: last/min/max/mean of a sampled value (KV pool occupancy and
 *    free pages per step, replay hit-rate, ...).
 *  - Histogram: full value retention with exact percentiles (TTFT and
 *    inter-token latency in virtual-clock microseconds) — the repo's
 *    runs are small enough that exactness beats bucketing, and the
 *    stored values make ground-truth cross-checks trivial (the fuzz
 *    oracle asserts count == finished requests).
 *
 * snapshotJson() serializes the whole registry deterministically
 * (name-ordered maps, fixed float formatting): identical seeded runs
 * must produce byte-identical metrics JSON — the determinism tripwire
 * in scripts/check.sh diffs two serving-bench runs. See docs/DESIGN.md
 * §7 for the observability contract.
 */
#ifndef RELAX_SUPPORT_METRICS_H_
#define RELAX_SUPPORT_METRICS_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace relax {

/** Event count; only a rollback (KVCacheManager::dropMatch) subtracts. */
class Counter
{
  public:
    void add(int64_t delta = 1) { value_ += delta; }
    int64_t value() const { return value_; }

  private:
    int64_t value_ = 0;
};

/** Point-in-time sampled value with min/max/mean over all samples. */
class Gauge
{
  public:
    void
    sample(double value)
    {
        last_ = value;
        sum_ += value;
        if (count_ == 0 || value < min_) min_ = value;
        if (count_ == 0 || value > max_) max_ = value;
        ++count_;
    }

    double last() const { return last_; }
    double min() const { return count_ > 0 ? min_ : 0.0; }
    double max() const { return count_ > 0 ? max_ : 0.0; }
    double mean() const { return count_ > 0 ? sum_ / (double)count_ : 0.0; }
    int64_t samples() const { return count_; }

  private:
    double last_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
    int64_t count_ = 0;
};

/** Exact-percentile latency distribution (values retained). */
class Histogram
{
  public:
    void record(double value);

    int64_t count() const { return (int64_t)values_.size(); }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

    /**
     * Exact percentile via nearest-rank on the sorted values:
     * index round((n - 1) * p) — the same convention the serving bench
     * has always used for its TTFT table, so registry percentiles and
     * historical bench numbers stay comparable.
     */
    double percentile(double p) const;

    const std::vector<double>& values() const { return values_; }

  private:
    mutable std::vector<double> values_; //!< lazily sorted by percentile()
    mutable bool sorted_ = true;
    double sum_ = 0.0;
};

/**
 * Named metrics, created on first use. Names are dotted paths
 * ("serve.ttft_us", "kv.prefix_hits"); the maps are ordered so JSON
 * snapshots are deterministic.
 */
class MetricsRegistry
{
  public:
    Counter& counter(const std::string& name) { return counters_[name]; }
    Gauge& gauge(const std::string& name) { return gauges_[name]; }
    Histogram& histogram(const std::string& name)
    {
        return histograms_[name];
    }

    const std::map<std::string, Counter>& counters() const
    {
        return counters_;
    }
    const std::map<std::string, Gauge>& gauges() const { return gauges_; }
    const std::map<std::string, Histogram>& histograms() const
    {
        return histograms_;
    }

    /**
     * Serializes every metric as one JSON object:
     * {"counters": {name: value}, "gauges": {name: {last,min,max,mean,
     * samples}}, "histograms": {name: {count,sum,min,max,mean,p50,p95,
     * p99}}}. Deterministic (ordered names, "%.3f" floats).
     */
    void snapshotJson(std::ostream& os) const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace relax

#endif // RELAX_SUPPORT_METRICS_H_

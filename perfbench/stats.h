/**
 * @file
 * Sample statistics, the host reference kernel and the run record the
 * benchmark prints (see README.md for the output format).
 */
#ifndef MITHRIL_PERFBENCH_STATS_H
#define MITHRIL_PERFBENCH_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace mithril::perfbench {

/** Linear-interpolated quantile of @p samples (q in [0, 1]); 0 when
 *  empty. */
double quantile(std::vector<double> samples, double q);

/** Median of @p samples. */
inline double
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

/** Mean of @p samples; 0 when empty. */
double mean(const std::vector<double> &samples);

/**
 * Times one pass of a fixed integer kernel that calls no program code
 * (a multiply-xorshift walk over a 1 MiB table), in milliseconds.
 * Reported beside every run as `bench.host_ref_ms` so host drift can be
 * told apart from a regression.
 */
double hostRefMs();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * One run's record: the result line (correct / attempted / failed /
 * metrics) plus the noise diagnostics printed on the line before it.
 */
class Report
{
  public:
    /** Adds a metric reported as measured. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /**
     * Adds the median of @p samples (already in @p unit) as metric
     * @p name and records its within-run quartiles and sample count as
     * a diagnostic.
     */
    void wall(const std::string &name, const std::vector<double> &samples,
              const std::string &unit);

    /** Records a diagnostic value (not a metric). */
    void diag(const std::string &name, double value);

    /** Counts one operation; @p ok false counts it as failed. */
    void op(bool ok);

    /** Counts one failed operation and remembers why (stderr). */
    void fail(const std::string &why);

    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    /** `ok_frac`: operations ok and oracle-correct ÷ attempted. */
    double okFrac() const;

    /** The result line: {"correct","attempted","failed","metrics"}. */
    std::string resultJson() const;

    /** The diagnostics line: {"diag": {...}, "wall": {...}}. */
    std::string diagJson() const;

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    struct Spread {
        std::string name;
        double p25, p50, p75;
        size_t n;
    };
    std::vector<Metric> metrics_;
    std::vector<Spread> spreads_;
    std::vector<std::pair<std::string, double>> diags_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Formats @p v with every significant digit (JSON number). */
std::string jsonNumber(double v);

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

} // namespace mithril::perfbench

#endif // MITHRIL_PERFBENCH_STATS_H

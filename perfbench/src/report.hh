/**
 * @file
 * Measurement plumbing shared by the perfbench binaries: the wall clock,
 * percentiles, peak RSS, the host/build fingerprint and the one-line
 * JSON result every binary prints last.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p begin to @p end. */
double elapsedMs(Clock::time_point begin, Clock::time_point end);

/** Milliseconds from @p begin to now. */
double msSince(Clock::time_point begin);

/**
 * Quantile @p q in [0, 1] with linear interpolation between closest
 * ranks (numpy's default); 0 for an empty sample.
 */
double quantile(std::vector<double> v, double q);

/**
 * For samples tagged with a group (a model configuration), the mean
 * over groups of each group's @p q quantile. With one group this is
 * the plain quantile; with the deploy_churn model set it weighs every
 * configuration equally whatever the seeded order drew.
 */
double groupedQuantile(const std::vector<double>& v,
                       const std::vector<int>& group, double q);

/**
 * For samples tagged with a time slice (a round of a steady-state
 * workload), the median over slices of each slice's @p q quantile. A
 * neighbour's burst moves only the slices it falls in, where it would
 * move a quantile of the pooled samples.
 */
double slicedQuantile(const std::vector<double>& v,
                      const std::vector<int>& slice, double q);

/**
 * For samples tagged with a time slice: the quantile @p q of the
 * samples pooled over the quiet quarter of the slices, those with the
 * lowest medians (at least one slice). The host's speed drifts between
 * phases tens of seconds long; the median of the pooled samples of a
 * whole run lands in whichever phase held most of it, the quiet
 * slices' median in the same phase every run.
 */
double quietQuantile(const std::vector<double>& v,
                     const std::vector<int>& slice, double q);

/** Peak resident set size of this process, MiB (getrusage). */
double peakRssMib();

/** Worker count a workload asks for, capped at the host's vCPUs. */
int cappedThreads(int wanted);

/** The command-line options every binary accepts. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Flip one byte of the first reference output (self-test hook). */
    bool corruptReference = false;
    /** perfbench_e2e: run the int8-vs-fp32 accuracy eval instead. */
    bool eval = false;
    /** perfbench_layers: where the Chrome trace goes. */
    std::string traceOut;
};

/** Parse argv; throws std::invalid_argument with a usage message. */
Args parseArgs(int argc, char** argv);

/**
 * The result object a binary prints as its last stdout line:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}},
 *  "info": {...}, "fingerprint": {...}}.
 */
class Result
{
  public:
    void metric(const std::string& name, double value,
                const std::string& unit);
    /** Free-form numeric context (sample counts, per-config figures). */
    void info(const std::string& key, double value);
    void infoText(const std::string& key, const std::string& value);

    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    bool correct = true;

    /** Write the result as one JSON line (with the fingerprint). */
    void print(std::ostream& os) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH

/**
 * @file
 * Shared harness of the host-speed benchmark: run options, the
 * in-memory span tracer, the metric catalogue every workload reports
 * into, and small timing/statistics helpers.
 *
 * Host time is always std::chrono::steady_clock (CLOCK_MONOTONIC on
 * Linux, the clock the launcher stamps the process start with), so
 * setup_s can be measured from before the process was exec'd.
 */

#ifndef DARTH_HOSTBENCH_HARNESS_H
#define DARTH_HOSTBENCH_HARNESS_H

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/Types.h"

namespace hostbench
{

using darth::i64;
using darth::u64;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    /** Measured window; whole rounds run until it has elapsed. */
    double seconds = 10.0;
    bool trace = false;
    /** Self-test: corrupt one output so its check must fail. */
    bool corrupt = false;
    /** steady_clock ns stamped by the launcher just before exec. */
    i64 t0Ns = 0;
    /** Per-run scratch directory (journal segments). */
    std::string scratch;
    /** Chrome Trace Event output of a traced run. */
    std::string traceOut;
};

/** Current steady_clock reading in nanoseconds. */
i64 nowNs();

/** Seconds elapsed since a nowNs() stamp. */
double secondsSince(i64 startNs);

/** Peak resident set of this process in MiB (monotone). */
double peakRssMb();

/** Total bytes of the regular files under a directory. */
u64 directoryBytes(const std::string &dir);

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/** Nearest-rank percentile (p in [0, 100]) of a sample. */
double percentile(std::vector<double> v, double p);

/** Deterministic 64-bit mix of a seed and a stream index. */
u64 mixSeed(u64 seed, u64 stream);

/**
 * Directory created on construction and removed, with everything
 * under it, on destruction — so thrown errors and failed checks
 * clean up too.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(std::filesystem::path path);
    ~ScratchDir();

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** A subdirectory path (not created). */
    std::string sub(const std::string &name) const;

  private:
    std::filesystem::path path_;
};

/**
 * In-memory span recorder. Spans nest through an open-span stack
 * (the benchmark drives the library from one thread), carry the id
 * of the operation they belong to, and are written out at the end as
 * Chrome Trace Event JSON. A disabled tracer records nothing and
 * reads no clock.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        u64 op = 0;
        i64 startNs = 0;
        i64 endNs = 0;
        /** Index of the enclosing span, -1 for a root span. */
        long parent = -1;
    };

    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, long index) : tracer_(tracer), index_(index)
        {
        }
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        long index_;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span for operation `op` (ends with the Scope). */
    [[nodiscard]] Scope span(const std::string &name, u64 op = 0);

    /** Durations in microseconds of every span with this name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Median duration (µs) of the spans with this name. */
    double medianUs(const std::string &name) const;

    /** Write the spans as Chrome Trace Event JSON. */
    void write(const std::string &path) const;

  private:
    void close(long index);

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<long> open_;
};

/** The timed part of every round of a run. */
struct Rounds
{
    std::vector<double> seconds;
    /** Peak RSS once the first round has run: set-up plus one round
     *  of work, whatever the run length or host speed. */
    double firstRoundRssMb = 0.0;

    std::size_t count() const { return seconds.size(); }
};

/**
 * Whole rounds until `seconds` of wall time have elapsed. `round(r)`
 * runs round r and returns the host seconds of its timed part (its
 * untimed rest is bookkeeping for the output checks).
 */
template <typename RoundFn>
Rounds
runRounds(double seconds, RoundFn round)
{
    Rounds rounds;
    const i64 begin = nowNs();
    do {
        rounds.seconds.push_back(round(rounds.count()));
        if (rounds.count() == 1)
            rounds.firstRoundRssMb = peakRssMb();
    } while (secondsSince(begin) < seconds);
    return rounds;
}

/**
 * What one workload run produced. An operation whose output is wrong
 * counts as failed and fails a check, and with it the whole run.
 */
struct Outcome
{
    /** Operations attempted in the measured window. */
    u64 attempted = 0;
    /** Attempted operations whose output was wrong. */
    u64 failed = 0;
    /** First failed checks (stderr diagnostics). */
    std::vector<std::string> errors;
    std::map<std::string, double> metrics;
    /** Host rate of every round, operations per second. */
    std::vector<double> roundRates;

    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }
    /** Record ops_per_s (the median round rate) and peak_rss_mb. */
    void setRounds(const Rounds &rounds, double opsPerRound);
    /** Record a check; a failed one marks the run incorrect. */
    void check(bool ok, const std::string &what);
    bool correct() const { return errors.empty(); }
};

} // namespace hostbench

#endif // DARTH_HOSTBENCH_HARNESS_H

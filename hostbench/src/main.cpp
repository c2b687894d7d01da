/**
 * @file
 * Host-speed benchmark of the DARTH-PUM simulator.
 *
 *   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --t0-ns <steady ns> --scratch <dir>
 *             [--trace-out <file>] [--corrupt]
 *
 * Runs one workload and prints, as the last line of stdout, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}, where
 * "failed" counts the attempted operations whose output was wrong.
 * --t0-ns is the launcher's steady_clock stamp of the process start
 * (setup_s counts from it); --scratch is a per-run directory the
 * launcher removes afterwards. Untraced runs
 * report the end-to-end metrics; traced runs (--trace 1) record spans
 * around every call into the library, run the layer probes, write the
 * spans as Chrome Trace Event JSON to --trace-out, and report the
 * per-layer metrics. A per-layer metric of a layer the workload never
 * calls reads 0. --corrupt damages one output after the run (the
 * self-test), so the run must report correct=false.
 *
 * Exit status: 0 when every check passed, 1 when a check failed (the
 * result line is still printed), 2 on a usage or run error (no result
 * line).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "Harness.h"
#include "Workloads.h"
#include "digital/KernelCache.h"

namespace
{

using namespace hostbench;

struct Catalogued
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by every workload's untraced run. */
const std::vector<Catalogued> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"},
    {"sim_latency_p50_ns", "sim_ns"},
    {"sim_latency_p99_ns", "sim_ns"},
    {"sim_throughput_per_kns", "ops/kns"},
};

/** Per-layer metrics, reported by every workload's traced run. */
const std::vector<Catalogued> kPerLayer = {
    {"analog.ace_mvm_us", "us"},
    {"analog.adc_conversions", "count"},
    {"analog.array_activations", "count"},
    {"hct.mvm_us", "us"},
    {"hct.reduce_us", "us"},
    {"hct.mvms", "count"},
    {"digital.boolops", "count"},
    {"digital.io_ops", "count"},
    {"digital.element_load_us", "us"},
    {"digital.macro_us", "us"},
    {"digital.kernel_cache_hit_ratio", "ratio"},
    {"runtime.submit_wait_us", "us"},
    {"runtime.issued", "count"},
    {"runtime.dependency_stalls", "count"},
    {"runtime.pipeline_hit_ratio", "ratio"},
    {"runtime.step_ms.conv1", "ms"},
    {"runtime.step_ms.r1b0", "ms"},
    {"runtime.step_ms.r1b1", "ms"},
    {"runtime.step_ms.r1b2", "ms"},
    {"runtime.step_ms.r2b0", "ms"},
    {"runtime.step_ms.r2b1", "ms"},
    {"runtime.step_ms.r2b2", "ms"},
    {"runtime.step_ms.r3b0", "ms"},
    {"runtime.step_ms.r3b1", "ms"},
    {"runtime.step_ms.r3b2", "ms"},
    {"runtime.step_ms.fc", "ms"},
    {"runtime.step_ms.drain", "ms"},
    {"apps.reference_ms", "ms"},
    {"apps.aes_kernel_cycles.data_movement", "cycles"},
    {"apps.aes_kernel_cycles.sub_bytes", "cycles"},
    {"apps.aes_kernel_cycles.shift_rows", "cycles"},
    {"apps.aes_kernel_cycles.mix_columns", "cycles"},
    {"apps.aes_kernel_cycles.add_round_key", "cycles"},
    {"serve.tracegen_us", "us"},
    {"serve.placement_s", "s"},
    {"serve.run_us", "us"},
    {"serve.parallel_speedup", "ratio"},
    {"serve.sim_queueing_p99_ns", "sim_ns"},
    {"serve.interleaved_stages", "count"},
    {"journal.write_us", "us"},
    {"journal.read_ns", "ns"},
    {"journal.replay_us", "us"},
    {"journal.compact_us", "us"},
    {"journal.compacted_replay_us", "us"},
    {"journal.records", "count"},
    {"journal.bytes", "bytes"},
    {"journal.compacted_bytes", "bytes"},
    {"bench.traced_ops_per_s", "1/s"},
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--seconds")
            opt.seconds = std::stod(value());
        else if (arg == "--trace")
            opt.trace = std::stoi(value()) != 0;
        else if (arg == "--t0-ns")
            opt.t0Ns = std::stoll(value());
        else if (arg == "--scratch")
            opt.scratch = value();
        else if (arg == "--trace-out")
            opt.traceOut = value();
        else if (arg == "--corrupt")
            opt.corrupt = true;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    return !opt.workload.empty() && opt.seconds > 0.0 && opt.t0Ns > 0 &&
           !opt.scratch.empty();
}

Outcome
runWorkload(const Options &opt, Tracer &tracer)
{
    if (opt.workload == "resnet_infer")
        return runResnetInfer(opt, tracer);
    if (opt.workload == "aes_encrypt")
        return runAesEncrypt(opt, tracer);
    if (opt.workload == "serve_stream")
        return runServeStream(opt, tracer);
    if (opt.workload == "serve_mix")
        return runServeMix(opt, tracer);
    throw std::invalid_argument("unknown workload " + opt.workload);
}

/** The result line; false when a reported figure is unusable. */
bool
printResult(const Options &opt, Outcome &out)
{
    if (opt.trace) {
        const darth::digital::KernelCache &cache =
            darth::digital::KernelCache::instance();
        const double lookups =
            static_cast<double>(cache.hits() + cache.misses());
        out.set("digital.kernel_cache_hit_ratio",
                lookups > 0 ? static_cast<double>(cache.hits()) / lookups
                            : 0.0);
        out.set("bench.traced_ops_per_s", out.metrics["ops_per_s"]);
    }
    const std::vector<Catalogued> &catalogue =
        opt.trace ? kPerLayer : kEndToEnd;
    std::string metrics;
    bool usable = true;
    for (const Catalogued &m : catalogue) {
        const auto it = out.metrics.find(m.name);
        // A layer the workload never calls reads 0; an end-to-end
        // figure must be measured (and positive) on a correct run.
        const double v = it == out.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v) ||
            (!opt.trace && out.correct() && !(v > 0.0))) {
            std::fprintf(stderr, "hostbench: metric %s unusable: %g\n",
                         m.name, v);
            usable = false;
        }
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name,
                      std::isfinite(v) ? v : 0.0, m.unit);
        metrics += buf;
    }
    if (!usable)
        return false;
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {%s}}\n",
                out.correct() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    std::fflush(stdout);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt)) {
            std::fprintf(stderr,
                         "usage: hostbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1> --t0-ns <ns> "
                         "--scratch <dir>\n");
            return 2;
        }
        Tracer tracer(opt.trace);
        Outcome out = runWorkload(opt, tracer);
        if (!out.roundRates.empty())
            std::fprintf(stderr,
                         "hostbench: %s: %zu rounds, ops/s min %.6g "
                         "median %.6g max %.6g\n",
                         opt.workload.c_str(), out.roundRates.size(),
                         *std::min_element(out.roundRates.begin(),
                                           out.roundRates.end()),
                         median(out.roundRates),
                         *std::max_element(out.roundRates.begin(),
                                           out.roundRates.end()));
        for (const std::string &e : out.errors)
            std::fprintf(stderr, "hostbench: check failed: %s\n",
                         e.c_str());
        tracer.write(opt.traceOut);
        if (out.attempted == 0 || !printResult(opt, out))
            return 2;
        return out.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 2;
    }
}

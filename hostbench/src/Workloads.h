/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the
 * seed, sets up (counted in setup_s, from process start through the
 * first cold call), runs whole rounds of the same operations for the
 * measured window, checks every output against a computation made
 * apart from the simulator, and records its metrics into an Outcome.
 * A traced run additionally records spans and the per-layer figures.
 */

#ifndef DARTH_HOSTBENCH_WORKLOADS_H
#define DARTH_HOSTBENCH_WORKLOADS_H

#include "Harness.h"
#include "runtime/Chip.h"
#include "runtime/Runtime.h"
#include "serve/ChipPool.h"

namespace hostbench
{

Outcome runResnetInfer(const Options &opt, Tracer &tracer);
Outcome runAesEncrypt(const Options &opt, Tracer &tracer);
Outcome runServeStream(const Options &opt, Tracer &tracer);
Outcome runServeMix(const Options &opt, Tracer &tracer);

/** Simulated work counters of one chip or a whole pool. */
struct WorkCounts
{
    u64 adcConversions = 0;
    u64 arrayActivations = 0;
    u64 boolops = 0;
    u64 ioOps = 0;
    u64 mvms = 0;
    u64 issued = 0;
    u64 pipelineHits = 0;
    u64 dependencyStalls = 0;

    WorkCounts &operator+=(const WorkCounts &o);
    WorkCounts operator-(const WorkCounts &o) const;
};

WorkCounts countWork(darth::runtime::Chip &chip,
                     darth::runtime::Runtime &rt);
WorkCounts countWork(darth::serve::ChipPool &pool);

/** Record the per-operation counters (analog.*, digital.boolops /
 *  io_ops, hct.mvms, runtime.*) of `ops` operations. */
void setWorkMetrics(Outcome &out, const WorkCounts &delta, double ops);

/** Host threads for parallel serving: the cores, at most 4. */
std::size_t serveThreads();

} // namespace hostbench

#endif // DARTH_HOSTBENCH_WORKLOADS_H

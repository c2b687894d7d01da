/**
 * @file
 * Layer probes: direct calls into the public entry point of a layer
 * that the workloads only reach from inside a single library call
 * (crossbars inside Hct::execMvm inside the scheduler drain). Each
 * probe runs on the workload's own tile configuration, weight shape,
 * operating point and seed, and reports host microseconds per call
 * (the median over timed batches).
 */

#ifndef DARTH_HOSTBENCH_PROBES_H
#define DARTH_HOSTBENCH_PROBES_H

#include "Harness.h"
#include "common/Matrix.h"
#include "runtime/Chip.h"

namespace hostbench
{

/** The MVM a workload issues most. */
struct ProbeShape
{
    darth::MatrixI weights;
    int elementBits = 8;
    int bitsPerCell = 2;
    int inputBits = 8;
};

/** Random weights of one shape at an element width (|w| < 2^bits). */
darth::MatrixI randomWeights(std::size_t rows, std::size_t cols,
                             int elementBits, u64 seed);

/**
 * Run every probe on `chip` and record, into `out`:
 * analog.ace_mvm_us, hct.mvm_us, hct.reduce_us,
 * digital.element_load_us (a 256-entry 8-bit table, the S-box
 * geometry), digital.macro_us (the XOR/COPY/ADD macros AES issues,
 * averaged) and runtime.submit_wait_us.
 */
void runProbes(const darth::runtime::ChipConfig &chip,
               const ProbeShape &shape, u64 seed, Tracer &tracer,
               Outcome &out);

} // namespace hostbench

#endif // DARTH_HOSTBENCH_PROBES_H

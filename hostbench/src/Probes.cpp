#include "Probes.h"

#include <algorithm>

#include "analog/Ace.h"
#include "common/Random.h"
#include "hct/Hct.h"
#include "runtime/Runtime.h"

namespace hostbench
{

using namespace darth;

namespace
{

/** Host budget of one probe: at least this long and kMinBatches. */
constexpr double kProbeSeconds = 0.15;
constexpr std::size_t kMinBatches = 7;

/**
 * Median host µs per call of `call(i)`, over batches sized so one
 * batch takes about a millisecond.
 */
template <typename CallFn>
double
perCallUs(CallFn call)
{
    u64 i = 0;
    for (int w = 0; w < 3; ++w)
        call(i++);
    const i64 calib = nowNs();
    call(i++);
    const double one = std::max(secondsSince(calib), 1e-7);
    const std::size_t batch =
        std::max<std::size_t>(1, static_cast<std::size_t>(1e-3 / one));
    std::vector<double> per_call;
    const i64 begin = nowNs();
    while (per_call.size() < kMinBatches ||
           secondsSince(begin) < kProbeSeconds) {
        const i64 t = nowNs();
        for (std::size_t b = 0; b < batch; ++b)
            call(i++);
        per_call.push_back(secondsSince(t) * 1e6 /
                           static_cast<double>(batch));
    }
    return median(per_call);
}

std::vector<std::vector<i64>>
randomInputs(std::size_t count, std::size_t rows, int bits, u64 seed)
{
    Rng rng(seed);
    const i64 lo = bits <= 1 ? 0 : -(i64{1} << (bits - 1));
    const i64 hi = bits <= 1 ? 1 : (i64{1} << (bits - 1)) - 1;
    std::vector<std::vector<i64>> xs(count, std::vector<i64>(rows));
    for (auto &x : xs)
        for (i64 &v : x)
            v = rng.uniformInt(lo, hi);
    return xs;
}

} // namespace

MatrixI
randomWeights(std::size_t rows, std::size_t cols, int elementBits,
              u64 seed)
{
    Rng rng(seed);
    const i64 mag = (i64{1} << elementBits) - 1;
    MatrixI m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniformInt(-mag, mag);
    return m;
}

void
runProbes(const runtime::ChipConfig &chip, const ProbeShape &shape,
          u64 seed, Tracer &tracer, Outcome &out)
{
    const hct::HctConfig &cfg = chip.hct;
    const auto xs = randomInputs(64, shape.weights.rows(),
                                 shape.inputBits, mixSeed(seed, 71));
    auto x_of = [&](u64 i) -> const std::vector<i64> & {
        return xs[i % xs.size()];
    };

    double ace_us = 0.0;
    {
        const auto s = tracer.span("probe.ace_mvm");
        CostTally tally;
        analog::Ace ace(cfg.ace, &tally, seed);
        ace.setMatrix(shape.weights, shape.elementBits,
                      shape.bitsPerCell);
        Cycle t = 0;
        ace_us = perCallUs([&](u64 i) {
            const auto pps = ace.execMvm(x_of(i), shape.inputBits, t);
            t += 1 + pps.size();
        });
    }

    double hct_us = 0.0;
    {
        const auto s = tracer.span("probe.hct_mvm");
        CostTally tally;
        hct::Hct tile(cfg, &tally, seed);
        tile.setMatrix(shape.weights, shape.elementBits,
                       shape.bitsPerCell);
        Cycle t = 0;
        hct_us = perCallUs([&](u64 i) {
            t = tile.execMvm(x_of(i), shape.inputBits, t).done;
        });
    }

    double load_us = 0.0;
    double macro_us = 0.0;
    {
        const auto s = tracer.span("probe.digital");
        CostTally tally;
        hct::Hct tile(cfg, &tally, seed);
        constexpr std::size_t kComputePipe = 0;
        constexpr std::size_t kTablePipe = 1;
        constexpr std::size_t kAddrVr = 1, kDstVr = 2, kBVr = 3;
        const std::size_t width = cfg.dce.pipeline.width;
        const std::size_t entries =
            std::min<std::size_t>(256, width * cfg.dce.pipeline.numRegs);
        Rng rng(mixSeed(seed, 72));
        digital::Pipeline &table = tile.dce().pipeline(kTablePipe);
        for (std::size_t i = 0; i < entries; ++i)
            table.setElement(i / width, i % width, rng.uniformInt(256));
        digital::Pipeline &compute = tile.dce().pipeline(kComputePipe);
        for (std::size_t e = 0; e < width; ++e) {
            compute.setElement(kAddrVr, e, rng.uniformInt(entries));
            compute.setElement(kBVr, e, rng.uniformInt(256));
        }
        Cycle t = 0;
        load_us = perCallUs([&](u64) {
            t = tile.elementLoad(kComputePipe, kDstVr, kAddrVr,
                                 kTablePipe, 0, 8, t);
        });
        double sum = 0.0;
        for (const digital::MacroKind kind :
             {digital::MacroKind::Xor, digital::MacroKind::Copy,
              digital::MacroKind::Add})
            sum += perCallUs([&](u64) {
                t = tile.digitalMacro(kComputePipe, kind, kDstVr,
                                      kDstVr, kBVr, 8, t);
            });
        macro_us = sum / 3.0;
    }

    double submit_us = 0.0;
    {
        const auto s = tracer.span("probe.submit_wait");
        runtime::Chip probe_chip(chip, seed);
        runtime::Runtime rt(probe_chip);
        runtime::Session session = rt.createSession();
        const runtime::MatrixHandle h = session.setMatrixBits(
            shape.weights, shape.elementBits, shape.bitsPerCell);
        Cycle t = 0;
        submit_us = perCallUs([&](u64 i) {
            const runtime::MvmFuture f =
                session.submit(h, x_of(i), shape.inputBits, t);
            t = session.wait(f).done;
        });
    }

    out.set("analog.ace_mvm_us", ace_us);
    out.set("hct.mvm_us", hct_us);
    out.set("hct.reduce_us", hct_us - ace_us);
    out.set("digital.element_load_us", load_us);
    out.set("digital.macro_us", macro_us);
    out.set("runtime.submit_wait_us", submit_us);
}

} // namespace hostbench

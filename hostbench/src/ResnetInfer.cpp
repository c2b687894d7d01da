/**
 * @file
 * resnet_infer: back-to-back ResNet-20 forwards through one session
 * on the 22-tile chip of bench/infer_bench.cpp. Weights and inputs
 * come from the seed; every forward's logits must equal the plain
 * integer Resnet20::infer on the same input.
 */

#include <string>

#include "Probes.h"
#include "Workloads.h"
#include "apps/cnn/CnnMapper.h"
#include "apps/cnn/Resnet20.h"
#include "model/Params.h"

namespace hostbench
{

using namespace darth;

namespace
{

/** Forwards per round (distinct seeded inputs, repeated each round). */
constexpr std::size_t kRound = 2;

/** One tile per ResNet layer: 64 arrays of 128x64 per tile. */
runtime::ChipConfig
resnetChip()
{
    runtime::ChipConfig cfg;
    cfg.hct.dce.numPipelines = 2;
    cfg.hct.dce.pipeline.depth = 64;
    cfg.hct.dce.pipeline.width = 64;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 64;
    cfg.hct.ace.arrayRows = 128;
    cfg.hct.ace.arrayCols = 64;
    cfg.numHcts = 22;
    return cfg;
}

double
cyclesToNs(double cycles)
{
    return cycles / model::kClockGHz;
}

} // namespace

Outcome
runResnetInfer(const Options &opt, Tracer &tracer)
{
    Outcome out;
    const runtime::ChipConfig cfg = resnetChip();
    runtime::Chip chip(cfg, opt.seed);
    runtime::Runtime rt(chip);
    runtime::Session session = rt.createSession();
    const cnn::Resnet20 net(mixSeed(opt.seed, 1));
    cnn::CnnMapper mapper(cfg.hct);
    cnn::ResnetForward fwd(session, net, mapper);

    std::vector<cnn::Tensor> inputs;
    for (std::size_t i = 0; i <= kRound; ++i)
        inputs.push_back(cnn::syntheticInput(mixSeed(opt.seed, 100 + i)));
    const cnn::Tensor &cold_input = inputs[kRound];

    // One forward, step by step: begin + submitNext per step + finish
    // is exactly what infer() runs, with one span per step (spans of a
    // disabled tracer read no clock).
    auto forward = [&](const cnn::Tensor &x, u64 op) {
        const auto s = tracer.span("apps.resnet_forward", op);
        auto run = fwd.begin(x, 0);
        for (std::size_t k = 0; !run->finished(); ++k) {
            const auto st = tracer.span(
                "runtime.step." + run->stepName(k), op);
            run->submitNext(0);
        }
        runtime::GraphStats g;
        {
            const auto st = tracer.span("runtime.step.drain", op);
            g = run->finish();
        }
        return cnn::ForwardResult{run->output(), g.start, g.done,
                                  g.mvmCount};
    };

    // First cold call: one forward on the idle chip (its latency is
    // the serialized single-forward latency).
    const cnn::ForwardResult cold = forward(cold_input, 0);
    out.set("setup_s", secondsSince(opt.t0Ns));

    std::vector<cnn::ForwardResult> results;
    WorkCounts round0;
    const WorkCounts before = countWork(chip, rt);
    const Rounds rounds =
        runRounds(opt.seconds, [&](std::size_t r) {
            const i64 t = nowNs();
            for (std::size_t i = 0; i < kRound; ++i)
                results.push_back(forward(inputs[i], results.size() + 1));
            const double s = secondsSince(t);
            if (r == 0)
                round0 = countWork(chip, rt) - before;
            return s;
        });
    out.attempted = results.size();
    out.setRounds(rounds, kRound);

    if (opt.corrupt)
        results[0].logits[0] += 1;

    // Reference: the plain-integer network, timed apart.
    const i64 ref_start = nowNs();
    std::vector<std::vector<i64>> want;
    for (const cnn::Tensor &x : inputs)
        want.push_back(net.infer(x));
    out.set("apps.reference_ms",
            secondsSince(ref_start) * 1e3 /
                static_cast<double>(inputs.size()));

    out.check(cold.logits == want[kRound], "cold forward logits");
    u64 wrong = 0;
    Cycle prev_done = cold.done;
    bool increasing = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        wrong += results[i].logits != want[i % kRound];
        increasing = increasing && results[i].done > prev_done;
        prev_done = results[i].done;
    }
    out.failed = wrong;
    out.check(wrong == 0, std::to_string(wrong) +
                              " forwards differ from Resnet20::infer");
    out.check(increasing, "completion stamps do not strictly increase");

    // Simulated figures of the first round (identical every round).
    const Cycle serialized = cold.done - cold.start;
    const double spacing =
        static_cast<double>(results[kRound - 1].done - cold.done) /
        static_cast<double>(kRound);
    out.check(spacing <= static_cast<double>(serialized),
              "pipelined spacing exceeds the serialized latency");
    std::vector<double> latency;
    for (std::size_t i = 0; i < kRound; ++i)
        latency.push_back(cyclesToNs(
            static_cast<double>(results[i].done - results[i].start)));
    out.set("sim_latency_p50_ns", median(latency));
    out.set("sim_latency_p99_ns", percentile(latency, 99.0));
    out.set("sim_throughput_per_kns", 1000.0 / cyclesToNs(spacing));

    if (!tracer.enabled())
        return out;
    setWorkMetrics(out, round0, kRound);
    for (const char *step :
         {"conv1", "r1b0", "r1b1", "r1b2", "r2b0", "r2b1", "r2b2",
          "r3b0", "r3b1", "r3b2", "fc", "drain"})
        out.set(std::string("runtime.step_ms.") + step,
                tracer.medianUs(std::string("runtime.step.") + step) *
                    1e-3);
    // Most of a forward's MVMs are the 3x3x16 -> 16 stage-1 convs.
    ProbeShape shape{randomWeights(144, 16, 8, mixSeed(opt.seed, 2)),
                     mapper.elementBits(), mapper.bitsPerCell(),
                     mapper.inputBits()};
    runProbes(cfg, shape, opt.seed, tracer, out);
    return out;
}

} // namespace hostbench

/**
 * @file
 * serve_mix: a 4 SAR + 4 ramp pool under CostAware placement serving
 * eight single-MVM tenants (Cnn, GfWide, Llm, Aes, twice) next to a
 * CnnInfer and an LlmInfer tenant, admitted per stage under
 * weighted-fair queueing with blocking overflow, through the vector
 * AdmissionController::run with one worker per core (at most 4).
 * Every output must equal the integer MVM, TinyCnn::infer or
 * Encoder::forward of its request's input.
 */

#include <memory>
#include <string>

#include "Probes.h"
#include "Workloads.h"
#include "serve/Admission.h"
#include "serve/ChipConfig.h"
#include "serve/TrafficGen.h"

namespace hostbench
{

using namespace darth;
using namespace darth::serve;

namespace
{

/** Open-loop horizon of one round's trace (wall ns). */
constexpr WallNs kHorizonNs = 12000000;
/** SAR iso-area tile count of the hetero chip specs. */
constexpr std::size_t kSarHcts = 8;

PoolConfig
mixPool()
{
    PoolConfig cfg;
    cfg.chips = heteroPoolSpecs(4, 4, kSarHcts);
    cfg.placement = PlacementPolicy::CostAware;
    return cfg;
}

/** Offered load of every tenant: the share of its placement's
 *  nominal service rate at the SAR design point. Below saturation,
 *  so simulated latency reflects queueing at a fixed rate rather than
 *  a backlog that grows with the trace. */
constexpr double kLoad = 0.25;

TenantSpec
calibrated(std::string name, WorkloadKind kind, double weight)
{
    TenantSpec s;
    s.name = std::move(name);
    s.kind = kind;
    s.weight = weight;
    const TrafficGen calib(1);
    PoolConfig one;
    one.chips = {heteroChipSpec(analog::AdcKind::Sar, kSarHcts)};
    ChipPool pool(one);
    ModelRef m = 0;
    if (kind == WorkloadKind::CnnInfer)
        m = pool.placeCnnInference(0, calib.cnnInferNet(1));
    else if (kind == WorkloadKind::LlmInfer)
        m = pool.placeLlmInference(0, calib.llmInferNet(1));
    else
        m = pool.placeModel(0, calib.weights(kind, 1),
                            TrafficGen::elementBits(kind),
                            TrafficGen::bitsPerCell(kind),
                            TrafficGen::inputBits(kind));
    const double nominal_ns =
        static_cast<double>(
            pool.nominalServicePs(m, TrafficGen::inputBits(kind))) /
        1000.0;
    s.ratePerKns = kLoad * 1000.0 / nominal_ns;
    return s;
}

std::vector<TenantSpec>
mixTenants()
{
    std::vector<TenantSpec> specs;
    for (std::size_t copy = 0; copy < 2; ++copy)
        for (const WorkloadKind kind :
             {WorkloadKind::Cnn, WorkloadKind::GfWide, WorkloadKind::Llm,
              WorkloadKind::Aes})
            specs.push_back(calibrated(
                std::string(workloadKindName(kind)) + std::to_string(copy),
                kind, 1.0));
    specs.push_back(calibrated("cnn_infer", WorkloadKind::CnnInfer, 4.0));
    specs.push_back(calibrated("llm_infer", WorkloadKind::LlmInfer, 1.0));
    return specs;
}

/** Each request's output computed with the plain-integer models. */
std::vector<std::vector<i64>>
referenceOutputs(const TrafficGen &gen, const std::vector<TenantSpec> &specs,
                 const std::vector<ServeRequest> &trace)
{
    std::vector<MatrixI> weights(specs.size());
    std::vector<cnn::TinyCnn> cnns;
    std::vector<llm::Encoder> encoders;
    std::vector<std::size_t> slot(specs.size(), 0);
    for (std::size_t t = 0; t < specs.size(); ++t) {
        const u64 key = TrafficGen::privateModelKey(t);
        if (specs[t].kind == WorkloadKind::CnnInfer) {
            slot[t] = cnns.size();
            cnns.push_back(gen.cnnInferNet(key));
        } else if (specs[t].kind == WorkloadKind::LlmInfer) {
            slot[t] = encoders.size();
            encoders.push_back(gen.llmInferNet(key));
        } else {
            weights[t] = gen.weights(specs[t].kind, key);
        }
    }
    std::vector<std::vector<i64>> want;
    want.reserve(trace.size());
    for (const ServeRequest &req : trace) {
        const WorkloadKind kind = specs[req.tenant].kind;
        if (kind == WorkloadKind::CnnInfer) {
            const cnn::TinyCnn &net = cnns[slot[req.tenant]];
            want.push_back(net.infer(net.inputFromFlat(req.input)));
        } else if (kind == WorkloadKind::LlmInfer) {
            const llm::Encoder &enc = encoders[slot[req.tenant]];
            const llm::EncoderConfig &c = enc.config();
            MatrixI tokens(c.seqLen, c.dModel);
            for (std::size_t r = 0; r < c.seqLen; ++r)
                for (std::size_t k = 0; k < c.dModel; ++k)
                    tokens(r, k) = req.input[r * c.dModel + k];
            want.push_back(enc.forward(tokens).data());
        } else {
            const MatrixI &w = weights[req.tenant];
            std::vector<i64> y(w.cols(), 0);
            for (std::size_t c = 0; c < w.cols(); ++c)
                for (std::size_t r = 0; r < w.rows(); ++r)
                    y[c] += w(r, c) * req.input[r];
            want.push_back(std::move(y));
        }
    }
    return want;
}

/** A fresh pool with every tenant placed, and its controller. */
struct Fleet
{
    ChipPool pool;
    std::vector<Tenant> tenants;
    std::unique_ptr<AdmissionController> ac;

    Fleet(const TrafficGen &gen, const std::vector<TenantSpec> &specs,
          std::size_t threads, Tracer &tracer)
        : pool(mixPool())
    {
        {
            const auto s = tracer.span("serve.placement");
            tenants = buildTenants(pool, gen, specs);
        }
        // Each chip's window covers its tiles twice over, so the
        // stages of one inference cannot fill it and stall the
        // single-MVM tenants placed beside it.
        AdmissionConfig cfg;
        for (std::size_t c = 0; c < pool.numChips(); ++c)
            cfg.chipQueueDepth.push_back(2 * pool.chip(c).numHcts());
        cfg.qos = QosPolicy::WeightedFair;
        cfg.overflow = OverflowPolicy::Block;
        cfg.granularity = Granularity::Stage;
        cfg.collectOutputs = true;
        // Exact latency percentiles (the streaming histograms round
        // to their bucket width).
        cfg.retainSamples = true;
        cfg.threads = threads;
        ac = std::make_unique<AdmissionController>(pool, tenants, cfg);
    }
};

} // namespace

Outcome
runServeMix(const Options &opt, Tracer &tracer)
{
    Outcome out;
    const std::vector<TenantSpec> specs = mixTenants();
    const TrafficGen gen(opt.seed);
    const std::size_t threads = serveThreads();

    i64 t = nowNs();
    const std::vector<ServeRequest> trace = gen.trace(specs, kHorizonNs);
    const double tracegen_s = secondsSince(t);
    const double n = static_cast<double>(trace.size());

    // First cold call: a whole run on a throwaway fleet.
    {
        Fleet cold(gen, specs, threads, tracer);
        cold.ac->run(trace);
    }
    out.set("setup_s", secondsSince(opt.t0Ns));

    // The reference outputs are built only once round 0's peak memory
    // has been taken, so peak_rss_mb holds no checking data: round 0's
    // outputs are kept and compared after the rounds, every later
    // round's right away.
    std::vector<std::vector<i64>> want;
    double reference_s = 0.0;
    auto mismatched = [&](const ServeReport &report) {
        if (want.empty()) {
            const i64 start = nowNs();
            want = referenceOutputs(gen, specs, trace);
            reference_s = secondsSince(start);
        }
        u64 wrong = 0;
        for (std::size_t i = 0; i < trace.size(); ++i)
            wrong += i >= report.outputs.size() ||
                     report.outputs[i] != want[i];
        return wrong;
    };

    ServeReport first;
    WorkCounts round0;
    u64 mismatches = 0;
    const Rounds rounds =
        runRounds(opt.seconds, [&](std::size_t r) {
            Fleet fleet(gen, specs, threads, tracer);
            const WorkCounts before = countWork(fleet.pool);
            const i64 start = nowNs();
            ServeReport report;
            {
                const auto s = tracer.span("serve.run", r);
                report = fleet.ac->run(trace);
            }
            const double s = secondsSince(start);
            if (opt.corrupt && r == 0)
                report.outputs[0][0] ^= 1;
            const std::string at = " (round " + std::to_string(r) + ")";
            u64 chip_completed = 0;
            for (const ChipStats &c : report.chips)
                chip_completed += c.completed;
            out.check(report.completed == trace.size() &&
                          report.rejected == 0,
                      "not every request completed" + at);
            out.check(chip_completed == report.completed,
                      "per-chip completions do not sum to the report" + at);
            if (r == 0) {
                round0 = countWork(fleet.pool) - before;
                first = std::move(report);
            } else {
                mismatches += mismatched(report);
            }
            return s;
        });
    out.attempted = rounds.count() * trace.size();
    mismatches += mismatched(first);
    out.set("apps.reference_ms", reference_s * 1e3 / n);
    out.failed = mismatches;
    out.check(mismatches == 0,
              std::to_string(mismatches) +
                  " outputs differ from the integer reference models");
    out.setRounds(rounds, n);

    std::vector<double> latency, queueing;
    for (const TenantStats &ts : first.tenants) {
        latency.insert(latency.end(), ts.latency.begin(), ts.latency.end());
        queueing.insert(queueing.end(), ts.queueing.begin(),
                        ts.queueing.end());
    }
    out.set("sim_latency_p50_ns", percentile(latency, 50.0));
    out.set("sim_latency_p99_ns", percentile(latency, 99.0));
    out.set("sim_throughput_per_kns", first.throughputPerKns());

    if (!tracer.enabled())
        return out;
    setWorkMetrics(out, round0, n);
    out.set("serve.tracegen_us", tracegen_s * 1e6 / n);
    out.set("serve.placement_s", tracer.medianUs("serve.placement") * 1e-6);
    const double run_s = tracer.medianUs("serve.run") * 1e-6;
    out.set("serve.run_us", run_s * 1e6 / n);
    {
        Fleet serial(gen, specs, 1, tracer);
        t = nowNs();
        serial.ac->run(trace);
        out.set("serve.parallel_speedup", secondsSince(t) / run_s);
    }
    out.set("serve.sim_queueing_p99_ns", percentile(queueing, 99.0));
    u64 interleaved = 0;
    for (const ChipStats &c : first.chips)
        interleaved += c.interleavedStages;
    out.set("serve.interleaved_stages", static_cast<double>(interleaved) / n);

    const WorkloadKind kind = WorkloadKind::Cnn;
    ProbeShape shape{gen.weights(kind, TrafficGen::privateModelKey(0)),
                     TrafficGen::elementBits(kind),
                     TrafficGen::bitsPerCell(kind),
                     TrafficGen::inputBits(kind)};
    runProbes(heteroChipSpec(analog::AdcKind::Sar, kSarHcts).chip, shape,
              opt.seed, tracer, out);
    return out;
}

} // namespace hostbench

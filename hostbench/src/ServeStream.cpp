/**
 * @file
 * serve_stream: the 64-chip mixed SAR/ramp pool and 16-tenant diurnal
 * Micro mix of `serve_bench million`. One operation is one request
 * carried through the durable path: a capped TraceStream recorded
 * through recordServeRunStream into rotating segments, the live
 * segments replayed, compacted, and the compacted form replayed.
 * The output checksum must equal one folded here with fnv1aWords
 * from plain-integer W^T x over the regenerated arrivals.
 */

#include <fstream>
#include <string>

#include "Probes.h"
#include "Workloads.h"
#include "common/Fnv.h"
#include "journal/Journal.h"
#include "journal/Replayer.h"
#include "journal/Segment.h"
#include "serve/Admission.h"
#include "serve/ChipConfig.h"
#include "serve/TrafficGen.h"

namespace hostbench
{

using namespace darth;
using namespace darth::serve;

namespace
{

/** Requests per round. */
constexpr std::size_t kRequests = 50000;
/** Requests of the set-up's cold recording. */
constexpr std::size_t kColdRequests = 2000;
/** SAR iso-area tile count of the hetero chip specs. */
constexpr std::size_t kSarHcts = 8;

/** `serve_bench million`'s pool, tenants and admission. */
journal::ServeRunSetup
streamSetup(u64 seed)
{
    journal::ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots.clear();
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back({journal::SlotKind::Sar, kSarHcts, 1.0});
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back({journal::SlotKind::Ramp, kSarHcts, 2.0});
    setup.placement = PlacementPolicy::CostAware;
    setup.trafficSeed = seed;
    setup.horizon = 100000000;   // far more arrivals than a round takes
    setup.admission.queueDepth = 2;
    setup.admission.qos = QosPolicy::WeightedFair;
    setup.admission.overflow = OverflowPolicy::Block;
    for (std::size_t i = 0; i < 16; ++i) {
        TenantSpec s;
        s.name = "m" + std::to_string(i);
        s.kind = WorkloadKind::Micro;
        if (i < 12) {
            s.weight = 1.0 + static_cast<double>(i % 4);
            s.ratePerKns = 2.0;
        } else {
            s.ratePerKns = 4.0;
            s.burst = {200000, 300000};
        }
        setup.tenants.push_back(s);
    }
    return setup;
}

/** The checksum runStream folds, computed with plain integers. */
u64
referenceChecksum(const journal::ServeRunSetup &setup, std::size_t n)
{
    const TrafficGen gen(setup.trafficSeed);
    std::vector<MatrixI> weights;
    for (std::size_t t = 0; t < setup.tenants.size(); ++t)
        weights.push_back(gen.weights(setup.tenants[t].kind,
                                      TrafficGen::privateModelKey(t)));
    TraceStream stream(setup.trafficSeed, setup.tenants, setup.horizon);
    CappedSource source(stream, n);
    u64 hash = kFnvOffsetBasis;
    ServeRequest req;
    std::vector<i64> y;
    while (source.next(req)) {
        const MatrixI &w = weights[req.tenant];
        y.assign(w.cols(), 0);
        for (std::size_t c = 0; c < w.cols(); ++c)
            for (std::size_t r = 0; r < w.rows(); ++r)
                y[c] += w(r, c) * req.input[r];
        hash = fnv1aWords(y, hash);
    }
    return hash;
}

/** Records a SegmentReader walk yields, and how many are summaries. */
struct Walk
{
    std::size_t records = 0;
    std::size_t summaries = 0;
};

Walk
walkSegments(const std::string &dir)
{
    Walk w;
    journal::SegmentReader reader(dir);
    journal::JournalEvent e;
    while (reader.next(e)) {
        ++w.records;
        w.summaries += e.kind == journal::EventKind::RequestSummary;
    }
    return w;
}

/** Flip one byte in the middle of the first live segment. */
void
corruptSegment(const std::string &dir)
{
    const std::string path = journal::segmentFileName(dir, 0);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff mid = f.tellg() / 2;
    char byte = 0;
    f.seekg(mid);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(mid);
    f.write(&byte, 1);
}

/** What one round produced, kept for the checks. */
struct RoundResult
{
    /** What the round threw, if it threw. */
    std::string error;
    u64 completed = 0;
    u64 rejected = 0;
    u64 checksum = 0;
    u64 replayChecksum = 0;
    u64 compactedReplayChecksum = 0;
    bool replayIdentical = false;
    bool compactedReplayIdentical = false;
    std::size_t journalRecords = 0;
    std::size_t writerRecords = 0;
};

StreamingHistogram
mergedHistogram(const ServeReport &report, bool queueing)
{
    StreamingHistogram agg;
    for (const TenantStats &t : report.tenants)
        agg.merge(queueing ? t.queueingHist : t.latencyHist);
    return agg;
}

} // namespace

Outcome
runServeStream(const Options &opt, Tracer &tracer)
{
    Outcome out;
    const journal::ServeRunSetup setup = streamSetup(opt.seed);

    // First cold call: a short recording fills the kernel cache and
    // the placement cost memos. It journals to memory: file-system
    // calls here would wait on the previous run's metadata commits,
    // which made set-up time swing by half between sets of runs.
    {
        TraceStream stream(setup.trafficSeed, setup.tenants,
                           setup.horizon);
        CappedSource source(stream, kColdRequests);
        journal::Journal jr;
        journal::recordServeRunStream(setup, source, jr);
    }
    out.set("setup_s", secondsSince(opt.t0Ns));

    const ScratchDir scratch(opt.scratch + "/serve_stream");
    // Record one round's requests into `live`. Returns the report.
    auto record = [&](const std::string &live, RoundResult &rr) {
        TraceStream stream(setup.trafficSeed, setup.tenants,
                           setup.horizon);
        CappedSource source(stream, kRequests);
        journal::Journal jr;
        journal::SegmentWriter writer(live);
        jr.attachSink(&writer, /*retainEvents*/ false);
        ServeReport report =
            journal::recordServeRunStream(setup, source, jr);
        writer.finish();
        rr.journalRecords = jr.size();
        rr.writerRecords = writer.records();
        return report;
    };

    std::vector<RoundResult> results;
    ServeReport first;
    Walk live_walk, compacted_walk;
    double live_bytes = 0.0, compacted_bytes = 0.0, read_s = 0.0;
    const Rounds rounds =
        runRounds(opt.seconds, [&](std::size_t r) {
            const std::string live = scratch.sub("live");
            const std::string compacted = scratch.sub("compacted");
            RoundResult rr;
            const i64 t = nowNs();
            try {
                ServeReport report;
                {
                    const auto s = tracer.span("serve.record", r);
                    report = record(live, rr);
                }
                rr.completed = report.completed;
                rr.rejected = report.rejected;
                rr.checksum = report.outputChecksum;
                if (opt.corrupt && r == 0)
                    corruptSegment(live);
                journal::SegmentReplayResult rep, crep;
                {
                    const auto s = tracer.span("journal.replay", r);
                    rep = journal::replaySegments(live);
                }
                {
                    const auto s = tracer.span("journal.compact", r);
                    journal::compactSegments(live, compacted);
                }
                {
                    const auto s =
                        tracer.span("journal.compacted_replay", r);
                    crep = journal::replaySegments(compacted);
                }
                rr.replayIdentical = rep.identical;
                rr.replayChecksum = rep.report.outputChecksum;
                rr.compactedReplayIdentical = crep.identical;
                rr.compactedReplayChecksum = crep.report.outputChecksum;
                if (r == 0)
                    first = std::move(report);
            } catch (const std::exception &e) {
                rr.error = e.what();
            }
            const double s = secondsSince(t);
            if (r == 0 && rr.error.empty()) {
                const i64 w = nowNs();
                live_walk = walkSegments(live);
                read_s = secondsSince(w);
                compacted_walk = walkSegments(compacted);
                live_bytes = static_cast<double>(directoryBytes(live));
                compacted_bytes =
                    static_cast<double>(directoryBytes(compacted));
            }
            std::filesystem::remove_all(live);
            std::filesystem::remove_all(compacted);
            results.push_back(rr);
            return s;
        });
    out.attempted = results.size() * kRequests;
    out.setRounds(rounds, kRequests);

    const i64 ref_start = nowNs();
    const u64 want = referenceChecksum(setup, kRequests);
    out.set("apps.reference_ms", secondsSince(ref_start) * 1e3 /
                                     static_cast<double>(kRequests));
    // A round that threw or failed a check fails all its requests.
    for (std::size_t r = 0; r < results.size(); ++r) {
        const RoundResult &rr = results[r];
        const std::string at = " (round " + std::to_string(r) + ")";
        bool ok = true;
        auto expect = [&](bool cond, const std::string &what) {
            out.check(cond, what + at);
            ok = ok && cond;
        };
        if (!rr.error.empty()) {
            expect(false, rr.error);
        } else {
            expect(rr.completed == kRequests && rr.rejected == 0,
                   "not every request completed");
            expect(rr.checksum == want,
                   "output checksum differs from the W^T x fold");
            expect(rr.replayIdentical && rr.replayChecksum == want,
                   "live replay is not bit-identical");
            expect(rr.compactedReplayIdentical &&
                       rr.compactedReplayChecksum == want,
                   "compacted replay is not bit-identical");
            expect(rr.writerRecords == rr.journalRecords,
                   "segment writer records differ from the journal");
        }
        if (r == 0 && rr.error.empty()) {
            expect(live_walk.records == rr.writerRecords,
                   "SegmentReader walk count differs from the writer");
            expect(compacted_walk.summaries == rr.completed,
                   "compacted journal lacks one summary per request");
        }
        out.failed += ok ? 0 : kRequests;
    }
    if (!out.correct())
        return out;

    const StreamingHistogram latency = mergedHistogram(first, false);
    out.set("sim_latency_p50_ns", latency.percentile(50.0));
    out.set("sim_latency_p99_ns", latency.percentile(99.0));
    out.set("sim_throughput_per_kns", first.throughputPerKns());

    if (!tracer.enabled())
        return out;
    const double n = static_cast<double>(kRequests);
    {
        const i64 t = nowNs();
        {
            const auto s = tracer.span("serve.tracegen");
            TraceStream stream(setup.trafficSeed, setup.tenants,
                               setup.horizon);
            CappedSource source(stream, kRequests);
            ServeRequest req;
            while (source.next(req)) {
            }
        }
        out.set("serve.tracegen_us", secondsSince(t) * 1e6 / n);
    }
    // The same run with no journal attached, on a pool owned here so
    // its chips' counters can be read. runStream drains sequentially,
    // so serve.parallel_speedup is not measured here and reads 0.
    ChipPool pool(setup.poolConfig());
    const TrafficGen gen(setup.trafficSeed);
    std::vector<Tenant> tenants;
    {
        const i64 t = nowNs();
        const auto s = tracer.span("serve.placement");
        tenants = buildTenants(pool, gen, setup.tenants);
        out.set("serve.placement_s", secondsSince(t));
    }
    AdmissionController ac(pool, tenants, setup.admission);
    TraceStream stream(setup.trafficSeed, setup.tenants, setup.horizon);
    CappedSource source(stream, kRequests);
    const WorkCounts before = countWork(pool);
    const i64 run_start = nowNs();
    ServeReport report;
    {
        const auto s = tracer.span("serve.run");
        report = ac.runStream(source);
    }
    const double run_us = secondsSince(run_start) * 1e6 / n;
    out.check(report.outputChecksum == want,
              "unjournaled run checksum differs");
    setWorkMetrics(out, countWork(pool) - before, n);
    out.set("serve.sim_queueing_p99_ns",
            mergedHistogram(report, true).percentile(99.0));
    u64 interleaved = 0;
    for (const ChipStats &c : report.chips)
        interleaved += c.interleavedStages;
    out.set("serve.interleaved_stages",
            static_cast<double>(interleaved) / n);
    out.set("serve.run_us", run_us);
    out.set("journal.write_us", tracer.medianUs("serve.record") / n - run_us);
    out.set("journal.read_ns",
            read_s * 1e9 / static_cast<double>(live_walk.records));
    out.set("journal.replay_us", tracer.medianUs("journal.replay") / n);
    out.set("journal.compact_us", tracer.medianUs("journal.compact") / n);
    out.set("journal.compacted_replay_us",
            tracer.medianUs("journal.compacted_replay") / n);
    out.set("journal.records",
            static_cast<double>(results[0].writerRecords) / n);
    out.set("journal.bytes", live_bytes / n);
    out.set("journal.compacted_bytes", compacted_bytes / n);

    const WorkloadKind kind = WorkloadKind::Micro;
    ProbeShape shape{gen.weights(kind, TrafficGen::privateModelKey(0)),
                     TrafficGen::elementBits(kind),
                     TrafficGen::bitsPerCell(kind),
                     TrafficGen::inputBits(kind)};
    runProbes(heteroChipSpec(analog::AdcKind::Sar, kSarHcts).chip, shape,
              opt.seed, tracer, out);
    return out;
}

} // namespace hostbench

#include "Workloads.h"

#include <algorithm>
#include <thread>

namespace hostbench
{

using namespace darth;

WorkCounts &
WorkCounts::operator+=(const WorkCounts &o)
{
    adcConversions += o.adcConversions;
    arrayActivations += o.arrayActivations;
    boolops += o.boolops;
    ioOps += o.ioOps;
    mvms += o.mvms;
    issued += o.issued;
    pipelineHits += o.pipelineHits;
    dependencyStalls += o.dependencyStalls;
    return *this;
}

WorkCounts
WorkCounts::operator-(const WorkCounts &o) const
{
    WorkCounts d;
    d.adcConversions = adcConversions - o.adcConversions;
    d.arrayActivations = arrayActivations - o.arrayActivations;
    d.boolops = boolops - o.boolops;
    d.ioOps = ioOps - o.ioOps;
    d.mvms = mvms - o.mvms;
    d.issued = issued - o.issued;
    d.pipelineHits = pipelineHits - o.pipelineHits;
    d.dependencyStalls = dependencyStalls - o.dependencyStalls;
    return d;
}

WorkCounts
countWork(runtime::Chip &chip, runtime::Runtime &rt)
{
    WorkCounts w;
    const CostTally &tally = chip.tally();
    w.adcConversions = tally.get("ace.adc").events;
    w.arrayActivations = tally.get("ace.array").events;
    w.boolops = tally.get("dce.boolop").events;
    w.ioOps = tally.get("dce.io").events;
    for (std::size_t i = 0; i < chip.numHcts(); ++i)
        w.mvms += chip.hct(i).mvmCount();
    const runtime::SchedulerCounters c = rt.scheduler().counters();
    w.issued = c.issued;
    w.pipelineHits = c.pipelineHits;
    w.dependencyStalls = c.dependencyStalls;
    return w;
}

WorkCounts
countWork(serve::ChipPool &pool)
{
    WorkCounts total;
    for (std::size_t c = 0; c < pool.numChips(); ++c)
        total += countWork(pool.chip(c), pool.runtime(c));
    return total;
}

void
setWorkMetrics(Outcome &out, const WorkCounts &d, double ops)
{
    auto per_op = [&](u64 v) { return static_cast<double>(v) / ops; };
    out.set("analog.adc_conversions", per_op(d.adcConversions));
    out.set("analog.array_activations", per_op(d.arrayActivations));
    out.set("digital.boolops", per_op(d.boolops));
    out.set("digital.io_ops", per_op(d.ioOps));
    out.set("hct.mvms", per_op(d.mvms));
    out.set("runtime.issued", per_op(d.issued));
    out.set("runtime.dependency_stalls", per_op(d.dependencyStalls));
    out.set("runtime.pipeline_hit_ratio",
            d.issued == 0 ? 0.0
                          : static_cast<double>(d.pipelineHits) /
                                static_cast<double>(d.issued));
}

std::size_t
serveThreads()
{
    const unsigned cores = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(cores, 1, 4);
}

} // namespace hostbench

/**
 * @file
 * perfbench_layers: the traced run. Half the time re-runs the workload
 * with a span around every deploy phase and every other warm run; the
 * other half alternates interpreter runs of each deployed graph with a
 * node-by-node replay through the core entry points. Spans go onto an
 * obs::Tracer host lane and out through the Chrome exporter; the
 * per-layer metrics print as one JSON line.
 *
 *   perfbench_layers --workload mnv1_f32_1t --seed 3 --seconds 10 \
 *       --trace-out mnv1.trace.json
 */

#include <algorithm>
#include <array>
#include <exception>
#include <fstream>
#include <iostream>
#include <vector>

#include "edgebench/core/parallel.hh"
#include "edgebench/obs/export.hh"
#include "edgebench/obs/trace.hh"
#include "replay.hh"
#include "report.hh"
#include "workloads.hh"

using namespace perfbench;
namespace obs = edgebench::obs;

namespace
{

/** Replays per configuration that also emit spans (keeps traces small). */
constexpr int kTracedReplays = 8;
/** Empty parallel regions timed for core.parfor_region_us. */
constexpr int kParforRegions = 2000;

/** Per-inference core time of one deployed graph, by bucket. */
struct ReplayFigures
{
    std::array<double, kNumBuckets> ms{};
    std::array<double, kNumBuckets> flops{};
    /** Median interpreter run, measured alternately with the replays. */
    double runMs = 0.0;
    double packMs = 0.0;
    bool identical = false;
    int reps = 0;
};

/**
 * Alternate one interpreter run and one core replay of @p k until
 * @p budget_ms is spent, so that the two are compared under the same
 * host conditions.
 */
ReplayFigures
replayGraph(const Kept& k, double budget_ms, HostLane& lane)
{
    ReplayFigures f;
    const graph::Graph& g = *k.deployment.graph;
    Replay replay(g);
    f.packMs = replay.packMs();
    std::vector<std::vector<double>> per_node(
        static_cast<std::size_t>(g.numNodes()));
    std::vector<double> node_ms, run_ms;
    const std::vector<core::Tensor> feed = {k.input};
    const Clock::time_point start = Clock::now();
    do {
        const bool traced = f.reps < kTracedReplays;
        Clock::time_point b = Clock::now();
        k.deployment.interp->run(feed);
        Clock::time_point e = Clock::now();
        run_ms.push_back(elapsedMs(b, e));
        if (traced)
            lane.span("graph.run", "graph", b, e);
        b = e;
        const auto out = replay.run(k.input, node_ms,
                                    traced ? &lane : nullptr);
        if (traced)
            lane.span("core.replay(" + k.config->name + ")", "core", b,
                      Clock::now());
        if (f.reps == 0)
            f.identical = sameBytes(out, k.deployment.firstOutput);
        for (std::size_t i = 0; i < node_ms.size(); ++i)
            per_node[i].push_back(node_ms[i]);
        ++f.reps;
    } while (msSince(start) < budget_ms);
    for (const graph::Node& n : g.nodes()) {
        const int b = bucketOf(n);
        f.ms[b] += quantile(per_node[static_cast<std::size_t>(n.id)], 0.5);
        f.flops[b] += 2.0 * static_cast<double>(n.macs());
    }
    f.runMs = quantile(std::move(run_ms), 0.5);
    return f;
}

/** Median wall time of one empty parallelFor region, microseconds. */
double
emptyRegionUs()
{
    std::vector<double> us;
    us.reserve(kParforRegions);
    const std::int64_t n = 4 * edgebench::core::parallelism();
    for (int i = 0; i < kParforRegions; ++i) {
        const Clock::time_point b = Clock::now();
        edgebench::core::parallelFor(
            n, [](std::int64_t, std::int64_t) {}, /*min_grain=*/1);
        us.push_back(msSince(b) * 1e3);
    }
    return quantile(std::move(us), 0.5);
}

double
mean(const std::vector<double>& v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        obs::Tracer tracer("perfbench " + args.workload);
        HostLane lane(tracer, Clock::now());

        WorkloadOptions opts;
        opts.name = args.workload;
        opts.seed = args.seed;
        opts.seconds = args.seconds / 2;
        opts.corruptReference = args.corruptReference;
        opts.lane = &lane;
        opts.keepDeployments = true;
        const WorkloadRun r = runWorkload(opts);

        // Core replay of every kept deployment, at the workload's
        // thread count, sharing the other half of the time.
        edgebench::core::setParallelism(r.threads);
        std::vector<const Kept*> kept;
        for (const Kept& k : r.kept)
            if (k.deployment.graph)
                kept.push_back(&k);
        const double budget_ms =
            args.seconds / 2 * 1e3 / static_cast<double>(kept.size());
        std::array<double, kNumBuckets> bucket_ms{};
        std::array<double, kNumBuckets> bucket_flops{};
        std::vector<double> run_ms, pack_ms, nodes, arena_kib;
        bool identical = true;
        int reps = 0;
        for (const Kept* k : kept) {
            const ReplayFigures f = replayGraph(*k, budget_ms, lane);
            for (int b = 0; b < kNumBuckets; ++b) {
                bucket_ms[b] += f.ms[b];
                bucket_flops[b] += f.flops[b];
            }
            run_ms.push_back(f.runMs);
            pack_ms.push_back(f.packMs);
            nodes.push_back(
                static_cast<double>(k->deployment.graph->numNodes()));
            arena_kib.push_back(static_cast<double>(
                k->deployment.interp->lastStats().arenaBytes) / 1024.0);
            identical = identical && f.identical;
            reps += f.reps;
        }

        Result res;
        res.attempted = r.attempted;
        res.failed = r.failed;
        res.correct = r.failed == 0 && r.attempted > 0 && !kept.empty();

        // Layer times are per inference (per deployment for the
        // graph.* phases), averaged over the configurations replayed.
        double core_ms = 0.0;
        for (int b = 0; b < kNumBuckets; ++b) {
            const double ms =
                bucket_ms[b] / static_cast<double>(kept.size());
            core_ms += ms;
            res.metric(std::string("core.") + bucketName(b) + "_ms", ms,
                       "ms");
        }
        auto gflops = [&](int b) {
            return bucket_ms[b] > 0.0
                ? bucket_flops[b] / (bucket_ms[b] * 1e6)
                : 0.0;
        };
        res.metric("core.conv_pw_gflops", gflops(kConvPw), "GFLOP/s");
        res.metric("core.conv_dw_gflops", gflops(kConvDw), "GFLOP/s");
        res.metric("core.parfor_region_us", emptyRegionUs(), "us");
        res.metric("core.pack_ms", mean(pack_ms), "ms");
        for (int p = 0; p < kNumPhases; ++p) {
            std::vector<double> v;
            for (const auto& phases : r.phaseMs)
                v.push_back(phases[static_cast<std::size_t>(p)]);
            res.metric(std::string("graph.") + phaseName(p) + "_ms",
                       groupedQuantile(v, r.deployGroup, 0.5), "ms");
        }

        std::vector<double> traced, untraced;
        std::vector<int> traced_group, untraced_group;
        for (std::size_t i = 0; i < r.latencyMs.size(); ++i) {
            (r.latencyTraced[i] ? traced : untraced)
                .push_back(r.latencyMs[i]);
            (r.latencyTraced[i] ? traced_group : untraced_group)
                .push_back(r.latencyGroup[i]);
        }
        const double traced_ms = groupedQuantile(traced, traced_group, 0.5);
        const double plain_ms =
            groupedQuantile(untraced, untraced_group, 0.5);
        res.metric("graph.run_ms", mean(run_ms), "ms");
        res.metric("graph.residual_ms", mean(run_ms) - core_ms, "ms");
        res.metric("graph.nodes", mean(nodes), "count");
        res.metric("graph.arena_kib", mean(arena_kib), "KiB");
        res.metric("bench.trace_overhead_pct",
                   plain_ms > 0.0
                       ? (traced_ms - plain_ms) / plain_ms * 100.0
                       : 0.0,
                   "%");

        res.info("threads", r.threads);
        res.info("replay_reps", reps);
        res.info("replay_identical", identical ? 1.0 : 0.0);
        res.info("traced_runs", static_cast<double>(traced.size()));
        res.info("untraced_runs", static_cast<double>(untraced.size()));
        if (!r.firstError.empty())
            res.infoText("first_error", r.firstError);

        if (!args.traceOut.empty()) {
            std::ofstream f(args.traceOut);
            obs::writeChromeTrace(tracer, f);
            if (!f)
                throw std::runtime_error("cannot write " + args.traceOut);
            res.infoText("trace", args.traceOut);
        }
        res.info("trace_events", static_cast<double>(tracer.events().size()));
        res.print(std::cout);
        return res.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_layers: " << e.what() << "\n";
        return 2;
    }
}

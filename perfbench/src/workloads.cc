#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "edgebench/core/parallel.hh"
#include "edgebench/core/rng.hh"
#include "edgebench/graph/passes.hh"
#include "edgebench/models/zoo.hh"

namespace perfbench
{

namespace
{

/**
 * Set-up repetitions per run; setup_s reports their median. The
 * steady-state workloads alternate set-up and a slice of the timed
 * loop; deploy_churn sets up (the whole model set) before its stream.
 */
constexpr int kSteadyRounds = 16;
constexpr int kChurnSetupReps = 3;
/** Distinct seeded inputs the steady-state workloads cycle through. */
constexpr int kSteadyInputs = 8;
/** Eval set: fixed seed and size, independent of --seed. */
constexpr std::uint64_t kEvalSeed = 20190901;
constexpr int kEvalInputs = 64;

/** Count a throw as a failed operation and keep the first message. */
void
noteFailure(WorkloadRun& r, const std::exception& e)
{
    ++r.failed;
    if (r.firstError.empty())
        r.firstError = e.what();
}

/** Span + sample bookkeeping for one warm run. */
void
recordWarmRun(WorkloadRun& r, const WorkloadOptions& opts, int group,
              bool traced, Clock::time_point begin, Clock::time_point end)
{
    if (traced)
        opts.lane->span("graph.run", "graph", begin, end);
    r.latencyMs.push_back(elapsedMs(begin, end));
    r.latencyGroup.push_back(group);
    r.latencyTraced.push_back(traced);
}

void
recordDeploy(WorkloadRun& r, const Deployment& d, int group)
{
    r.deployMs.push_back(d.deployMs);
    r.phaseMs.push_back(d.phaseMs);
    r.deployGroup.push_back(group);
}

/** mnv1_f32_1t and mnv1_int8_4t. */
WorkloadRun
runSteady(const WorkloadOptions& opts, bool int8, int threads)
{
    WorkloadRun r;
    r.threads = threads;
    r.latencyBySlice = true;
    const Config* config = nullptr;
    for (const Config& c : modelSet())
        if (c.model == Model::kMobileNetV1 && c.int8 == int8)
            config = &c;

    // Rounds of set-up then steady state, so that the set-up and deploy
    // samples spread over the whole run like the latency samples do.
    // Round r ends at (r + 1) / rounds of the run, set-up included, so a
    // run lasts opts.seconds whatever set-up costs.
    const Clock::time_point run_start = Clock::now();
    Deployment d;
    std::vector<std::vector<core::Tensor>> feeds;
    std::vector<std::vector<core::Tensor>> refs;
    std::int64_t i = 0;
    for (int round = 0; round < kSteadyRounds; ++round) {
        const Clock::time_point t0 = Clock::now();
        d = Deployment{};
        feeds.clear();
        refs.clear();
        core::Rng rng(opts.seed);
        const std::uint64_t weight_seed = rng.next();
        for (int k = 0; k < kSteadyInputs; ++k)
            feeds.push_back({core::Tensor::randomNormal(
                inputShape(Model::kMobileNetV1), rng)});
        core::setParallelism(threads);
        d = deploy(modelText(Model::kMobileNetV1), int8, weight_seed,
                   feeds[0][0], opts.lane);
        // References: the fp32 workload checks run-to-run identity; the
        // int8 one checks thread-count determinism against 1 thread.
        core::setParallelism(1);
        for (const auto& feed : feeds)
            refs.push_back(d.interp->run(feed));
        core::setParallelism(threads);
        r.setupS.push_back(msSince(t0) / 1e3);
        recordDeploy(r, d, 0);
        if (opts.corruptReference)
            corrupt(refs[0]);

        const double round_end_ms =
            opts.seconds * 1e3 * (round + 1) / kSteadyRounds;
        for (bool first = true;
             first || msSince(run_start) < round_end_ms; first = false, ++i) {
            const auto k = static_cast<std::size_t>(i % kSteadyInputs);
            const bool traced = opts.lane && i % 2 == 1;
            ++r.attempted;
            try {
                const Clock::time_point b = Clock::now();
                const auto out = d.interp->run(feeds[k]);
                recordWarmRun(r, opts, round, traced, b, Clock::now());
                if (!sameBytes(out, refs[k])) {
                    ++r.failed;
                    if (r.firstError.empty())
                        r.firstError = "output differs from the reference "
                                       "for input " + std::to_string(k);
                }
            } catch (const std::exception& e) {
                noteFailure(r, e);
            }
        }
    }
    if (opts.keepDeployments)
        r.kept.push_back({config, std::move(d), feeds[0][0]});
    return r;
}

/** deploy_churn. */
WorkloadRun
runChurn(const WorkloadOptions& opts)
{
    WorkloadRun r;
    r.threads = 1;
    core::setParallelism(1);
    const auto& set = modelSet();
    const Clock::time_point run_start = Clock::now();

    // Set-up: the EBG text of every model, from the models builders,
    // and one warm-up deployment per configuration so that the timed
    // stream does not also measure the process's first touch of code
    // and heap.
    std::vector<std::string> texts;
    core::Rng warm_rng(opts.seed ^ 0x5EEDull);
    for (int rep = 0; rep < kChurnSetupReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        texts.clear();
        for (Model m : {Model::kCifarNet, Model::kMobileNetV1,
                        Model::kMobileNetV2, Model::kGruClassifier})
            texts.push_back(modelText(m));
        for (const Config& config : set)
            deploy(texts[static_cast<std::size_t>(config.model)],
                   config.int8, warm_rng.next(),
                   core::Tensor::randomNormal(inputShape(config.model),
                                              warm_rng),
                   nullptr);
        r.setupS.push_back(msSince(t0) / 1e3);
    }
    if (opts.keepDeployments)
        r.kept.resize(set.size());

    core::Rng rng(opts.seed);
    std::vector<int> order(set.size());
    // Deployments per configuration so far: the traced run spans every
    // other warm run of each configuration.
    std::vector<std::int64_t> deployed(set.size(), 0);
    bool corrupt_next = opts.corruptReference;
    // Whole blocks only, so every configuration is drawn equally often;
    // at least two, so a traced run has traced and untraced warm runs of
    // every configuration.
    for (int block = 0;
         block < 2 || msSince(run_start) < opts.seconds * 1e3; ++block) {
        const Clock::time_point block_start = Clock::now();
        std::iota(order.begin(), order.end(), 0);
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i],
                      order[static_cast<std::size_t>(rng.uniformInt(
                          0, static_cast<std::int64_t>(i)))]);
        for (const int c : order) {
            const Config& config = set[static_cast<std::size_t>(c)];
            const std::uint64_t weight_seed = rng.next();
            const core::Tensor input = core::Tensor::randomNormal(
                inputShape(config.model), rng);
            const auto ci = static_cast<std::size_t>(c);
            const bool traced = opts.lane && deployed[ci]++ % 2 == 1;
            ++r.attempted;
            try {
                Deployment d = deploy(
                    texts[static_cast<std::size_t>(config.model)],
                    config.int8, weight_seed, input, opts.lane);
                recordDeploy(r, d, c);
                const Clock::time_point b = Clock::now();
                const auto second = d.interp->run({input});
                recordWarmRun(r, opts, c, traced, b, Clock::now());
                r.latencyBlock.push_back(block);
                if (corrupt_next) {
                    corrupt(d.firstOutput);
                    corrupt_next = false;
                }
                if (!sameBytes(d.firstOutput, second)) {
                    ++r.failed;
                    if (r.firstError.empty())
                        r.firstError = config.name + ": first output "
                                       "differs from the second run";
                }
                if (opts.keepDeployments)
                    r.kept[ci] = Kept{&config, std::move(d), input};
            } catch (const std::exception& e) {
                noteFailure(r, e);
            }
        }
        r.blockMs.push_back(msSince(block_start));
    }
    return r;
}

} // namespace

WorkloadRun
runWorkload(const WorkloadOptions& opts)
{
    if (opts.name == "mnv1_f32_1t")
        return runSteady(opts, /*int8=*/false, 1);
    if (opts.name == "mnv1_int8_4t")
        return runSteady(opts, /*int8=*/true, cappedThreads(4));
    if (opts.name == "deploy_churn")
        return runChurn(opts);
    throw std::invalid_argument("unknown workload '" + opts.name + "'");
}

double
latencyP50(const WorkloadRun& r)
{
    if (r.latencyBySlice)
        return quietQuantile(r.latencyMs, r.latencyGroup, 0.5);
    // deploy_churn: the warm runs of the quiet quarter of the blocks,
    // those with the lowest wall time.
    std::vector<std::size_t> blocks(r.blockMs.size());
    std::iota(blocks.begin(), blocks.end(), std::size_t{0});
    std::sort(blocks.begin(), blocks.end(), [&](std::size_t a, std::size_t b) {
        return r.blockMs[a] < r.blockMs[b];
    });
    std::vector<bool> quiet(blocks.size(), false);
    for (std::size_t i = 0; i < std::max<std::size_t>(1, blocks.size() / 4);
         ++i)
        quiet[blocks[i]] = true;
    std::vector<double> v;
    std::vector<int> group;
    for (std::size_t i = 0; i < r.latencyMs.size(); ++i) {
        if (quiet[static_cast<std::size_t>(r.latencyBlock[i])]) {
            v.push_back(r.latencyMs[i]);
            group.push_back(r.latencyGroup[i]);
        }
    }
    return groupedQuantile(v, group, 0.5);
}

double
latencyP90(const WorkloadRun& r)
{
    return r.latencyBySlice ? slicedQuantile(r.latencyMs, r.latencyGroup, 0.9)
                            : groupedQuantile(r.latencyMs, r.latencyGroup, 0.9);
}

EvalResult
runInt8Eval()
{
    namespace models = edgebench::models;
    core::setParallelism(cappedThreads(4));
    // Logits are the fc output; mark it so both graphs return it next
    // to the softmax.
    graph::Graph g = models::buildMobileNetV1(1000, 96);
    for (const auto& n : g.nodes())
        if (n.name == "fc")
            g.markOutput(n.id);
    if (g.outputIds().size() != 2)
        throw std::runtime_error("eval: MobileNet-v1 has no 'fc' node");
    core::Rng rng(kEvalSeed);
    g.materializeParams(rng);
    const graph::Graph f32 = graph::fuseConvBnAct(g).graph;
    const std::vector<core::Tensor> calib = {
        core::Tensor::randomNormal(inputShape(Model::kMobileNetV1), rng)};
    const graph::Graph q = graph::quantizeInt8(f32, &calib).graph;
    graph::Interpreter ref(f32);
    graph::Interpreter quant(q);

    EvalResult e;
    double signal = 0.0;
    double noise = 0.0;
    int agree = 0;
    for (int i = 0; i < kEvalInputs; ++i) {
        const std::vector<core::Tensor> x = {core::Tensor::randomNormal(
            inputShape(Model::kMobileNetV1), rng)};
        const core::Tensor a = ref.run(x).at(1).toF32();
        const core::Tensor b = quant.run(x).at(1).toF32();
        std::int64_t best_a = 0;
        std::int64_t best_b = 0;
        for (std::int64_t j = 0; j < a.numel(); ++j) {
            if (a.at(j) > a.at(best_a))
                best_a = j;
            if (b.at(j) > b.at(best_b))
                best_b = j;
            const double s = a.at(j);
            const double d = s - static_cast<double>(b.at(j));
            signal += s * s;
            noise += d * d;
        }
        agree += best_a == best_b;
    }
    e.inputs = kEvalInputs;
    e.top1Agree = static_cast<double>(agree) / kEvalInputs;
    e.sqnrDb = 10.0 * std::log10(signal / noise);
    return e;
}

} // namespace perfbench

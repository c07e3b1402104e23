/**
 * @file
 * The benchmark's three closed-loop workloads (one client, one process,
 * batch 1) and the int8-vs-fp32 accuracy eval.
 *
 *  - mnv1_f32_1t:  MobileNet-v1 96 px, fused fp32, 1 thread, cycling
 *                  through seeded inputs; every output must equal the
 *                  reference computed at set-up byte for byte.
 *  - mnv1_int8_4t: the same fused model after quantizeInt8, at
 *                  min(4, vCPUs) threads; every output must equal the
 *                  same graph's 1-thread output byte for byte.
 *  - deploy_churn: a seeded stream of cold deployments over the model
 *                  set, one seeded permutation of all eight
 *                  configurations per block, 1 thread; each first
 *                  output must equal that interpreter's second run.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "deploy.hh"

namespace perfbench
{

/** How to run one workload. */
struct WorkloadOptions
{
    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool corruptReference = false;
    /**
     * Traced run: deploy phases and every other steady-state run
     * become spans (the untraced runs between them give the tracing
     * overhead). Null for the end-to-end run.
     */
    HostLane* lane = nullptr;
    /** Keep the last deployment of each configuration (core replay). */
    bool keepDeployments = false;
};

/** A deployment kept alive after the run, with the input it ran on. */
struct Kept
{
    const Config* config = nullptr;
    Deployment deployment;
    core::Tensor input;
};

/** Raw samples of one workload run. */
struct WorkloadRun
{
    int threads = 1;
    /** Wall time of each set-up repetition, s. */
    std::vector<double> setupS;
    /** Cold deployments: total ms, per-phase ms, config index. */
    std::vector<double> deployMs;
    std::vector<std::array<double, kNumPhases>> phaseMs;
    std::vector<int> deployGroup;
    /**
     * Warm runs: ms, group, whether the run was traced. The group is
     * the round on the steady-state workloads and the config index on
     * deploy_churn; see latencyQuantile.
     */
    std::vector<double> latencyMs;
    std::vector<int> latencyGroup;
    std::vector<bool> latencyTraced;
    bool latencyBySlice = false;
    /** deploy_churn: each warm run's block, and each block's wall ms. */
    std::vector<int> latencyBlock;
    std::vector<double> blockMs;
    /** Timed operations and those that threw or failed their check. */
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::string firstError;
    std::vector<Kept> kept;
};

/** Run the workload named in @p opts; throws on an unknown name. */
WorkloadRun runWorkload(const WorkloadOptions& opts);

/**
 * Warm-run latency percentiles of @p r. On the steady-state workloads
 * p50 is taken over the quiet quarter of the rounds (quietQuantile) and
 * p90 as the median over rounds (slicedQuantile). On deploy_churn both
 * are per-configuration percentiles averaged over the configurations
 * (groupedQuantile), p50 over the quiet quarter of the blocks (lowest
 * wall time) only.
 */
double latencyP50(const WorkloadRun& r);
double latencyP90(const WorkloadRun& r);

/** int8-vs-fp32 agreement of MobileNet-v1 96 px on a fixed eval set. */
struct EvalResult
{
    double top1Agree = 0.0;
    double sqnrDb = 0.0;
    int inputs = 0;
};

/**
 * Fixed-seed eval, independent of the workload seed: the same weights
 * and inputs on every run, so both figures repeat exactly.
 */
EvalResult runInt8Eval();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

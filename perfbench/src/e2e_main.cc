/**
 * @file
 * perfbench_e2e: the untraced run. Prints the end-to-end metrics of one
 * workload (or, with --eval, the int8-vs-fp32 accuracy figures) as one
 * JSON line; exits 1 when any timed operation failed.
 *
 *   perfbench_e2e --workload mnv1_f32_1t --seed 3 --seconds 10
 *   perfbench_e2e --eval
 */

#include <exception>
#include <iostream>

#include "report.hh"
#include "workloads.hh"

using namespace perfbench;

int
main(int argc, char** argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        Result res;
        if (args.eval) {
            const EvalResult e = runInt8Eval();
            res.metric("int8_top1_agree", e.top1Agree, "frac");
            res.metric("int8_sqnr_db", e.sqnrDb, "dB");
            res.info("eval_inputs", e.inputs);
            res.print(std::cout);
            return 0;
        }

        WorkloadOptions opts;
        opts.name = args.workload;
        opts.seed = args.seed;
        opts.seconds = args.seconds;
        opts.corruptReference = args.corruptReference;
        const WorkloadRun r = runWorkload(opts);

        res.metric("latency_p50_ms", latencyP50(r), "ms");
        // The fastest cold deploy (per configuration, averaged over them).
        // The latency tail and a cold deploy's median and tail follow the
        // host's phases; they are printed, not declared.
        res.metric("deploy_min_ms",
                   groupedQuantile(r.deployMs, r.deployGroup, 0.0), "ms");
        res.info("latency_p90_ms", latencyP90(r));
        res.info("deploy_p50_ms",
                 groupedQuantile(r.deployMs, r.deployGroup, 0.5));
        res.info("deploy_p90_ms",
                 groupedQuantile(r.deployMs, r.deployGroup, 0.9));
        // The fastest set-up repetition, like deploy_min_ms: the median
        // of cold set-ups moves with the host's phases.
        res.metric("setup_s", quantile(r.setupS, 0.0), "s");
        res.info("setup_p50_s", quantile(r.setupS, 0.5));
        res.metric("peak_rss_mib", peakRssMib(), "MiB");
        res.attempted = r.attempted;
        res.failed = r.failed;
        res.correct = r.failed == 0 && r.attempted > 0;
        res.info("threads", r.threads);
        res.info("latency_samples", static_cast<double>(r.latencyMs.size()));
        res.info("deploy_samples", static_cast<double>(r.deployMs.size()));
        res.info("setup_reps", static_cast<double>(r.setupS.size()));
        res.info("failed_frac",
                 r.attempted ? static_cast<double>(r.failed) /
                         static_cast<double>(r.attempted)
                             : 1.0);
        if (!r.firstError.empty())
            res.infoText("first_error", r.firstError);
        res.print(std::cout);
        return res.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_e2e: " << e.what() << "\n";
        return 2;
    }
}

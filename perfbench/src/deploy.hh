/**
 * @file
 * The model set and one cold deployment: EBG text -> graphFromString ->
 * materializeParams -> fuseConvBnAct [-> quantizeInt8] -> Interpreter
 * (which verifies) -> first run. Every phase is timed from here, around
 * calls into the graph module's public functions.
 */

#ifndef PERFBENCH_DEPLOY_HH
#define PERFBENCH_DEPLOY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "edgebench/core/tensor.hh"
#include "edgebench/graph/graph.hh"
#include "edgebench/graph/interpreter.hh"
#include "edgebench/obs/trace.hh"
#include "report.hh"

namespace perfbench
{

namespace core = edgebench::core;
namespace graph = edgebench::graph;

/** The models of the benchmark's model set. */
enum class Model
{
    kCifarNet,
    kMobileNetV1,
    kMobileNetV2,
    kGruClassifier,
};

/** One deployable configuration: a model in one precision. */
struct Config
{
    Model model;
    bool int8;
    std::string name; ///< e.g. "mobilenet_v1_96_int8"
};

/** CifarNet, MobileNet-v1/v2 at 96 px, the GRU classifier; fp32 + int8. */
const std::vector<Config>& modelSet();

/** The EBG text of @p m, straight from the models builders. */
std::string modelText(Model m);

/** The single input shape of @p m (batch 1). */
core::Shape inputShape(Model m);

/**
 * The measured-time lane of an obs::Tracer: one span per timed call,
 * placed at its wall-clock offset from @p origin. The traced binary
 * records through one; the untraced binary passes none.
 */
class HostLane
{
  public:
    HostLane(edgebench::obs::Tracer& tracer, Clock::time_point origin);

    void span(const std::string& name, const std::string& category,
              Clock::time_point begin, Clock::time_point end);

  private:
    edgebench::obs::Tracer& tracer_;
    Clock::time_point origin_;
    int lane_;
};

/** Deployment phases, in order. */
enum Phase
{
    kParse,
    kMaterialize,
    kFuse,
    kQuantize,
    kVerify,
    kPlan,
    kCtor,
    kFirstRun,
    kNumPhases,
};

/** Metric-style name of a phase, e.g. "materialize". */
const char* phaseName(int phase);

/** A deployed model, ready for steady-state runs. */
struct Deployment
{
    /** Heap-held: the interpreter keeps a reference to it. */
    std::unique_ptr<graph::Graph> graph;
    std::unique_ptr<graph::Interpreter> interp;
    /** Output of the first run (on the deploy's first input). */
    std::vector<core::Tensor> firstOutput;
    /** EBG text to first output, ms. */
    double deployMs = 0.0;
    /** Per-phase wall time, ms (0 for phases that did not run). */
    std::array<double, kNumPhases> phaseMs{};
};

/**
 * Deploy @p text: weights from @p weight_seed, int8 calibration on
 * @p input, first run on @p input. With a @p lane, every phase
 * becomes a span and the verifier and memory planner are also called
 * on their own (kVerify/kPlan), which the Interpreter otherwise does
 * inside construction and first run.
 */
Deployment deploy(const std::string& text, bool int8,
                  std::uint64_t weight_seed, const core::Tensor& input,
                  HostLane* lane);

/** True when both output lists match in dtype, shape and every byte. */
bool sameBytes(const std::vector<core::Tensor>& a,
               const std::vector<core::Tensor>& b);

/** Flip one payload byte of @p outs[0] (self-test hook). */
void corrupt(std::vector<core::Tensor>& outs);

} // namespace perfbench

#endif // PERFBENCH_DEPLOY_HH

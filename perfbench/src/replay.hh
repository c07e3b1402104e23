/**
 * @file
 * Core replay: execute every node of a deployed graph through the
 * public core entry point it lowers to (conv2dPacked /
 * conv2dInt8Packed with pre-packed weights, the depthwise direct path
 * inside them, densePacked, gruForward, ...), timing each call. Same
 * shapes, same weights, same thread count as the workload, so the
 * per-bucket sums attribute the interpreter's run time to core layers;
 * what is left over is graph-layer bookkeeping (graph.residual_ms).
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <optional>
#include <vector>

#include "deploy.hh"
#include "edgebench/core/kernels.hh"
#include "edgebench/core/kernels_int8.hh"
#include "edgebench/core/kernels_rnn.hh"

namespace perfbench
{

/** Which core layer a node's time is charged to. */
enum Bucket
{
    kConvPw,    ///< 1x1 convolutions (the packed GEMM)
    kConvDw,    ///< depthwise convolutions
    kConvOther, ///< every other convolution
    kDense,
    kRnn,       ///< LSTM / GRU
    kMisc,      ///< pool, softmax, add, activations, (de)quantize, ...
    kNumBuckets,
};

/** Metric-style name of a bucket, e.g. "conv_pw". */
const char* bucketName(int bucket);

/** The bucket @p n is charged to. */
Bucket bucketOf(const graph::Node& n);

class Replay
{
  public:
    /**
     * Prepare @p g (which must outlive the replay): convert and pack
     * every weight its kernels consume. That one-time work is
     * packMs().
     */
    explicit Replay(const graph::Graph& g);

    double packMs() const { return packMs_; }

    /**
     * Run the graph on @p input. Per-node wall time lands in
     * @p node_ms (indexed by NodeId); with a @p lane each node
     * call is also a span in category "core.<bucket>".
     */
    std::vector<core::Tensor> run(const core::Tensor& input,
                                  std::vector<double>& node_ms,
                                  HostLane* lane);

  private:
    /** Everything one node needs that does not change between runs. */
    struct Prepared
    {
        /** Converted copies where the stored dtype differs. */
        std::vector<std::optional<core::Tensor>> f32;
        std::optional<core::Tensor> w8;
        std::optional<core::PackedConvWeights> conv;
        std::optional<core::PackedConvWeightsI8> convI8;
        std::optional<core::PackedA> dense;
        std::optional<core::PackedAI8> denseI8;
        std::optional<core::PackedRnnWeights> rnn;
    };

    const core::Tensor& paramF32(const graph::Node& n, std::size_t k) const;
    const core::Tensor& weightI8(const graph::Node& n) const;
    const core::Tensor& bias(const graph::Node& n) const;
    core::Tensor exec(const graph::Node& n,
                      const std::vector<const core::Tensor*>& ins) const;
    core::Tensor execF32(const graph::Node& n,
                         const std::vector<const core::Tensor*>& ins) const;

    const graph::Graph& graph_;
    std::vector<Prepared> prep_;
    double packMs_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH

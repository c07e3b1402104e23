#include "replay.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace perfbench
{

using graph::ActKind;
using graph::Node;
using graph::OpKind;

namespace
{

bool
quantized(const Node& n)
{
    return n.dtype == core::DType::kI8 && n.outQuant.has_value();
}

bool
isConv(const Node& n)
{
    return n.kind == OpKind::kConv2d || n.kind == OpKind::kFusedConvBnAct;
}

/** ReLU-family activations ride the conv engines' epilogue. */
core::EpilogueAct
epilogueOf(const Node& n)
{
    if (n.kind != OpKind::kFusedConvBnAct)
        return core::EpilogueAct::kNone;
    if (n.attrs.activation == ActKind::kRelu)
        return core::EpilogueAct::kRelu;
    if (n.attrs.activation == ActKind::kRelu6)
        return core::EpilogueAct::kRelu6;
    return core::EpilogueAct::kNone;
}

const core::Tensor&
emptyTensor()
{
    static const core::Tensor t;
    return t;
}

} // namespace

const char*
bucketName(int bucket)
{
    static const char* const names[kNumBuckets] = {
        "conv_pw", "conv_dw", "conv_other", "dense", "rnn", "misc",
    };
    return names[bucket];
}

Bucket
bucketOf(const Node& n)
{
    switch (n.kind) {
      case OpKind::kConv2d:
      case OpKind::kFusedConvBnAct: {
        const core::Conv2dGeom& g = n.attrs.conv2d;
        if (g.groups > 1 && g.inC == g.groups)
            return kConvDw;
        if (g.groups == 1 && g.kH == 1 && g.kW == 1)
            return kConvPw;
        return kConvOther;
      }
      case OpKind::kConv3d: return kConvOther;
      case OpKind::kDense: return kDense;
      case OpKind::kLstm:
      case OpKind::kGru: return kRnn;
      default: return kMisc;
    }
}

Replay::Replay(const graph::Graph& g)
    : graph_(g), prep_(static_cast<std::size_t>(g.numNodes()))
{
    const Clock::time_point t0 = Clock::now();
    for (const Node& n : g.nodes()) {
        Prepared& p = prep_[static_cast<std::size_t>(n.id)];
        p.f32.resize(n.params.size());
        for (std::size_t k = 0; k < n.params.size(); ++k)
            if (n.params[k].dtype() != core::DType::kF32)
                p.f32[k] = n.params[k].toF32();
        const bool q = quantized(n);
        if (q && (isConv(n) || n.kind == OpKind::kDense) &&
            n.params[0].dtype() != core::DType::kI8)
            p.w8 = n.params[0].toInt8();
        if (isConv(n)) {
            if (q)
                p.convI8 = core::packConv2dWeightsInt8(weightI8(n),
                                                       n.attrs.conv2d);
            else
                p.conv = core::packConv2dWeights(paramF32(n, 0),
                                                 n.attrs.conv2d);
        } else if (n.kind == OpKind::kDense) {
            if (q)
                p.denseI8 = core::packDenseWeightsInt8(weightI8(n),
                                                       n.attrs.dense);
            else
                p.dense = core::packDenseWeights(paramF32(n, 0),
                                                 n.attrs.dense);
        } else if (n.kind == OpKind::kLstm || n.kind == OpKind::kGru) {
            p.rnn = core::packRnnWeights(paramF32(n, 0), paramF32(n, 1),
                                         n.attrs.rnn);
        }
    }
    packMs_ = msSince(t0);
}

const core::Tensor&
Replay::paramF32(const Node& n, std::size_t k) const
{
    const auto& converted = prep_[static_cast<std::size_t>(n.id)].f32[k];
    return converted ? *converted : n.params[k];
}

const core::Tensor&
Replay::weightI8(const Node& n) const
{
    const auto& w8 = prep_[static_cast<std::size_t>(n.id)].w8;
    return w8 ? *w8 : n.params[0];
}

const core::Tensor&
Replay::bias(const Node& n) const
{
    return n.params.size() > 1 ? paramF32(n, 1) : emptyTensor();
}

std::vector<core::Tensor>
Replay::run(const core::Tensor& input, std::vector<double>& node_ms,
            HostLane* lane)
{
    node_ms.assign(static_cast<std::size_t>(graph_.numNodes()), 0.0);
    std::vector<core::Tensor> values(
        static_cast<std::size_t>(graph_.numNodes()));
    std::vector<const core::Tensor*> ins;
    for (const Node& n : graph_.nodes()) {
        ins.clear();
        for (const graph::NodeId in : n.inputs)
            ins.push_back(&values[static_cast<std::size_t>(in)]);
        const Clock::time_point b = Clock::now();
        core::Tensor out;
        if (n.kind == OpKind::kInput) {
            out = input.toF32();
            if (quantized(n))
                out = out.toInt8(*n.outQuant);
        } else {
            out = exec(n, ins);
        }
        const Clock::time_point e = Clock::now();
        values[static_cast<std::size_t>(n.id)] = std::move(out);
        node_ms[static_cast<std::size_t>(n.id)] = elapsedMs(b, e);
        if (lane)
            lane->span(n.name, std::string("core.") + bucketName(bucketOf(n)),
                       b, e);
    }
    std::vector<core::Tensor> outputs;
    for (const graph::NodeId id : graph_.outputIds())
        outputs.push_back(values[static_cast<std::size_t>(id)]);
    return outputs;
}

core::Tensor
Replay::exec(const Node& n, const std::vector<const core::Tensor*>& ins) const
{
    if (quantized(n)) {
        // The integer engines take int8 activations; convert only when
        // the producer left fp32.
        core::Tensor in_tmp;
        auto int8Input = [&]() -> const core::Tensor& {
            if (ins[0]->dtype() == core::DType::kI8)
                return *ins[0];
            in_tmp = ins[0]->toInt8();
            return in_tmp;
        };
        switch (n.kind) {
          case OpKind::kConv2d:
          case OpKind::kFusedConvBnAct: {
            const auto& p = prep_[static_cast<std::size_t>(n.id)];
            core::Tensor out = core::conv2dInt8Packed(
                int8Input(), weightI8(n), *p.convI8, bias(n),
                n.attrs.conv2d, *n.outQuant, epilogueOf(n));
            if (n.kind == OpKind::kFusedConvBnAct &&
                n.attrs.activation != ActKind::kNone &&
                epilogueOf(n) == core::EpilogueAct::kNone)
                out = core::relu(out.toF32()).toInt8(*n.outQuant);
            return out;
          }
          case OpKind::kDense: {
            const auto& p = prep_[static_cast<std::size_t>(n.id)];
            return core::denseInt8Packed(int8Input(), weightI8(n),
                                         *p.denseI8, bias(n),
                                         n.attrs.dense, *n.outQuant);
          }
          case OpKind::kActivation:
            if (ins[0]->dtype() == core::DType::kI8) {
                if (n.attrs.activation == ActKind::kRelu)
                    return core::reluInt8(*ins[0]);
                if (n.attrs.activation == ActKind::kRelu6)
                    return core::relu6Int8(*ins[0]);
            }
            break;
          case OpKind::kAdd:
            if (ins[0]->dtype() == core::DType::kI8 &&
                ins[1]->dtype() == core::DType::kI8)
                return core::addInt8(*ins[0], *ins[1], *n.outQuant);
            break;
          default:
            break;
        }
    }
    // Everything else computes in fp32 on dequantized inputs, and a
    // quantized node requantizes its result.
    std::vector<core::Tensor> converted;
    converted.reserve(ins.size());
    std::vector<const core::Tensor*> f32_ins;
    for (const core::Tensor* t : ins) {
        if (t->dtype() == core::DType::kF32) {
            f32_ins.push_back(t);
        } else {
            converted.push_back(t->toF32());
            f32_ins.push_back(&converted.back());
        }
    }
    core::Tensor out = execF32(n, f32_ins);
    return quantized(n) ? out.toInt8(*n.outQuant) : out;
}

core::Tensor
Replay::execF32(const Node& n,
                const std::vector<const core::Tensor*>& ins) const
{
    const core::Tensor& x = *ins[0];
    const auto& p = prep_[static_cast<std::size_t>(n.id)];
    switch (n.kind) {
      case OpKind::kConv2d:
      case OpKind::kFusedConvBnAct: {
        core::Tensor out = core::conv2dPacked(x, paramF32(n, 0), *p.conv,
                                              bias(n), n.attrs.conv2d,
                                              epilogueOf(n));
        if (n.kind == OpKind::kFusedConvBnAct) {
            switch (n.attrs.activation) {
              case ActKind::kLeakyRelu:
                core::leakyReluInPlace(out, n.attrs.leakySlope);
                break;
              case ActKind::kSigmoid: core::sigmoidInPlace(out); break;
              case ActKind::kTanh: core::tanhInPlace(out); break;
              default: break;
            }
        }
        return out;
      }
      case OpKind::kDense:
        return core::densePacked(x, *p.dense, bias(n), n.attrs.dense);
      case OpKind::kBatchNorm:
        return core::batchNorm(x, paramF32(n, 0), paramF32(n, 1),
                               paramF32(n, 2), paramF32(n, 3),
                               n.attrs.bnEpsilon);
      case OpKind::kActivation:
        switch (n.attrs.activation) {
          case ActKind::kRelu: return core::relu(x);
          case ActKind::kRelu6: return core::relu6(x);
          case ActKind::kLeakyRelu:
            return core::leakyRelu(x, n.attrs.leakySlope);
          case ActKind::kSigmoid: return core::sigmoid(x);
          case ActKind::kTanh: return core::tanhAct(x);
          case ActKind::kNone: break;
        }
        break;
      case OpKind::kSoftmax: return core::softmax(x);
      case OpKind::kMaxPool2d: return core::maxPool2d(x, n.attrs.pool2d);
      case OpKind::kAvgPool2d: return core::avgPool2d(x, n.attrs.pool2d);
      case OpKind::kGlobalAvgPool: return core::globalAvgPool(x);
      case OpKind::kAdd: return core::addElementwise(x, *ins[1]);
      case OpKind::kConcat: return core::concatChannels(ins);
      case OpKind::kConcatLast: return core::concatLastDim(ins);
      case OpKind::kFlatten: return core::flatten(x);
      case OpKind::kPadSpatial:
        return core::padSpatial(x, n.attrs.pads[0], n.attrs.pads[1],
                                n.attrs.pads[2], n.attrs.pads[3]);
      case OpKind::kUpsample:
        return core::upsampleNearest(x, n.attrs.upsampleFactor);
      case OpKind::kLstm:
        return core::lstmForward(x, *p.rnn, paramF32(n, 2), n.attrs.rnn);
      case OpKind::kGru:
        return core::gruForward(x, *p.rnn, paramF32(n, 2), n.attrs.rnn);
      case OpKind::kSelectTimestep: {
        // A strided copy with no core kernel; mirrors the interpreter.
        const auto& s = x.shape();
        const std::int64_t steps = s[1];
        const std::int64_t f = s[2];
        core::Tensor out(core::Shape{s[0], f});
        const auto src = x.data();
        const auto dst = out.data();
        for (std::int64_t b = 0; b < s[0]; ++b)
            std::copy_n(src.data() + (b * steps + n.attrs.timestep) * f,
                        f, dst.data() + b * f);
        return out;
      }
      case OpKind::kReshape: {
        const auto d = x.data();
        return core::Tensor(n.outShape,
                            std::vector<float>(d.begin(), d.end()));
      }
      default:
        break;
    }
    throw std::invalid_argument("replay: no core entry point for " +
                                graph::nodeDesc(n));
}

} // namespace perfbench

#include "deploy.hh"

#include <cstring>

#include "edgebench/core/rng.hh"
#include "edgebench/graph/memplan.hh"
#include "edgebench/graph/passes.hh"
#include "edgebench/graph/serialize.hh"
#include "edgebench/graph/verify.hh"
#include "edgebench/models/zoo.hh"

namespace perfbench
{

namespace models = edgebench::models;

const std::vector<Config>&
modelSet()
{
    static const std::vector<Config> set = {
        {Model::kCifarNet, false, "cifarnet_f32"},
        {Model::kCifarNet, true, "cifarnet_int8"},
        {Model::kMobileNetV1, false, "mobilenet_v1_96_f32"},
        {Model::kMobileNetV1, true, "mobilenet_v1_96_int8"},
        {Model::kMobileNetV2, false, "mobilenet_v2_96_f32"},
        {Model::kMobileNetV2, true, "mobilenet_v2_96_int8"},
        {Model::kGruClassifier, false, "gru_classifier_f32"},
        {Model::kGruClassifier, true, "gru_classifier_int8"},
    };
    return set;
}

std::string
modelText(Model m)
{
    switch (m) {
      case Model::kCifarNet:
        return graph::graphToString(models::buildCifarNet());
      case Model::kMobileNetV1:
        return graph::graphToString(models::buildMobileNetV1(1000, 96));
      case Model::kMobileNetV2:
        return graph::graphToString(models::buildMobileNetV2(1000, 96));
      case Model::kGruClassifier:
        return graph::graphToString(models::buildGruClassifier());
    }
    return {};
}

core::Shape
inputShape(Model m)
{
    switch (m) {
      case Model::kCifarNet: return {1, 3, 32, 32};
      case Model::kMobileNetV1:
      case Model::kMobileNetV2: return {1, 3, 96, 96};
      case Model::kGruClassifier: return {1, 100, 40};
    }
    return {};
}

HostLane::HostLane(edgebench::obs::Tracer& tracer, Clock::time_point origin)
    : tracer_(tracer), origin_(origin),
      lane_(tracer.ensureLane("host (measured wall time)"))
{}

void
HostLane::span(const std::string& name, const std::string& category,
               Clock::time_point begin, Clock::time_point end)
{
    tracer_.recordSpanAt(name, category, elapsedMs(origin_, begin),
                         elapsedMs(begin, end), lane_);
}

const char*
phaseName(int phase)
{
    static const char* const names[kNumPhases] = {
        "parse", "materialize", "fuse", "quantize",
        "verify", "plan", "ctor", "first_run",
    };
    return names[phase];
}

Deployment
deploy(const std::string& text, bool int8, std::uint64_t weight_seed,
       const core::Tensor& input, HostLane* lane)
{
    Deployment d;
    const Clock::time_point start = Clock::now();
    Clock::time_point mark = start;
    auto done = [&](Phase p) {
        const Clock::time_point now = Clock::now();
        d.phaseMs[p] = elapsedMs(mark, now);
        if (lane)
            lane->span(std::string("graph.") + phaseName(p), "graph", mark,
                       now);
        mark = now;
    };

    graph::Graph g = graph::graphFromString(text);
    done(kParse);
    core::Rng rng(weight_seed);
    g.materializeParams(rng);
    done(kMaterialize);
    g = graph::fuseConvBnAct(g).graph;
    done(kFuse);
    if (int8) {
        const std::vector<core::Tensor> calib = {input};
        g = graph::quantizeInt8(g, &calib).graph;
        done(kQuantize);
    }
    d.graph = std::make_unique<graph::Graph>(std::move(g));
    if (lane) {
        (void)graph::verifyGraph(*d.graph);
        done(kVerify);
        (void)graph::planMemory(*d.graph, /*force_f32=*/false);
        done(kPlan);
    }
    d.interp = std::make_unique<graph::Interpreter>(*d.graph);
    done(kCtor);
    d.firstOutput = d.interp->run({input});
    done(kFirstRun);
    d.deployMs = elapsedMs(start, mark);
    return d;
}

bool
sameBytes(const std::vector<core::Tensor>& a,
          const std::vector<core::Tensor>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const core::Tensor& x = a[i];
        const core::Tensor& y = b[i];
        if (x.dtype() != y.dtype() || x.shape() != y.shape())
            return false;
        if (x.dtype() == core::DType::kI8) {
            const auto p = x.qdata();
            const auto q = y.qdata();
            if (!(x.quantParams() == y.quantParams()) ||
                std::memcmp(p.data(), q.data(), p.size()) != 0)
                return false;
        } else {
            const auto p = x.data();
            const auto q = y.data();
            if (std::memcmp(p.data(), q.data(), p.size_bytes()) != 0)
                return false;
        }
    }
    return true;
}

void
corrupt(std::vector<core::Tensor>& outs)
{
    core::Tensor& t = outs.at(0);
    if (t.dtype() == core::DType::kI8) {
        t.qdataMut()[0] ^= 1;
    } else {
        unsigned char bytes[sizeof(float)];
        std::memcpy(bytes, &t.data()[0], sizeof bytes);
        bytes[0] ^= 1;
        std::memcpy(&t.data()[0], bytes, sizeof bytes);
    }
}

} // namespace perfbench

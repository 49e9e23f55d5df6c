#include "sim/graph_exec.hh"

#include <cmath>

#include "nn/layers.hh"
#include "obs/trace.hh"
#include "tensor/ops.hh"

namespace forms::sim {

namespace {

/**
 * Program one matrix node's replicas: the node is mapped once, and
 * every hosting chip programs its own engine from that mapping, so
 * the programmed conductances are identical across replicas (device
 * variation draws from a stream seeded only by the engine config).
 */
void
programReplicas(NodeExec &e, int id, admm::LayerState &st,
                const RuntimeConfig &cfg)
{
    // Dynamic span name, so only built when a session is live (the
    // FORMS_TRACE_SCOPE macro would pay the concatenation always).
    obs::TraceScope trace_scope(
        obs::traceEnabled() ? "program " + e.name : std::string());
    arch::MappedLayer mapped = arch::mapLayer(st, cfg.mapping);
    // Fault identity is the graph node id: stable across runtimes,
    // replicas and partitionings. A spare budget turns on remapping.
    const auto fault_key = static_cast<uint64_t>(id);
    if (cfg.faults && cfg.mapping.spareXbars > 0)
        e.remap = arch::remapFaultyCrossbars(mapped, *cfg.faults,
                                             fault_key, e.name.c_str());
    for (size_t r = 0; r < e.replicaChips.size(); ++r)
        e.replicas.emplace_back(mapped, cfg.engine, cfg.faults, fault_key);
}

} // namespace

std::vector<NodeExec>
buildNodeExecs(const compile::Graph &g, const std::vector<int> &topo,
               std::vector<admm::LayerState> &layers,
               const RuntimeConfig &cfg, const compile::Schedule &sched)
{
    FORMS_TRACE_SCOPE("sim::buildNodeExecs");
    std::vector<NodeExec> execs;
    execs.reserve(topo.size());
    for (int id : topo) {
        const compile::Node &n = g.node(id);
        NodeExec e;
        e.op = n.op;
        e.nodeId = id;
        e.name = n.name;
        e.inputs = n.inputs;
        // Every chip of the node's stage hosts it: one chip for
        // ordinary stages, R consecutive chips for a replicated stage
        // (which holds exactly one matrix node).
        const int s = sched.stageOf(id);
        FORMS_ASSERT(s >= 0, "graph exec: node %d missing from the "
                             "schedule — was it built from this graph?",
                     id);
        e.chip = sched.stageFirstChip(s);
        for (int c = 0; c < sched.stageWidth(s); ++c)
            e.replicaChips.push_back(e.chip + c);

        switch (n.op) {
        case compile::Op::Conv: {
            admm::LayerState *st =
                findLayerState(layers, &n.conv->weight());
            if (!st) {
                fatal("graph exec: no compression state for conv "
                      "node '%s'", n.name.c_str());
            }
            programReplicas(e, id, *st, cfg);
            e.outC = n.conv->outChannels();
            e.k = n.conv->kernel();
            e.stride = n.conv->stride();
            e.pad = n.conv->pad();
            // A digital output stage (BN folded into the periphery)
            // replaces the plain layer bias.
            if (!n.outScale.empty()) {
                e.chanScale = n.outScale;
                e.bias = n.outBias;
            } else {
                e.bias = tensorToVector(n.conv->bias());
            }
            e.scale = resolveStageScale(cfg, n.name, n.inScale, n.inBits);
            break;
        }
        case compile::Op::Dense: {
            admm::LayerState *st =
                findLayerState(layers, &n.dense->weight());
            if (!st) {
                fatal("graph exec: no compression state for dense "
                      "node '%s'", n.name.c_str());
            }
            programReplicas(e, id, *st, cfg);
            e.outC = n.dense->outDim();
            e.bias = tensorToVector(n.dense->bias());
            e.scale = resolveStageScale(cfg, n.name, n.inScale, n.inBits);
            break;
        }
        case compile::Op::BatchNorm: {
            // Left unfolded (e.g. BN not preceded by a private conv):
            // snapshot the eval-mode affine.
            const int c = n.bn->channels();
            e.bnScale.resize(static_cast<size_t>(c));
            e.bnShift.resize(static_cast<size_t>(c));
            for (int i = 0; i < c; ++i) {
                const float sigma = std::sqrt(
                    n.bn->runningVar().at(i) + n.bn->eps());
                const float s = n.bn->gamma().at(i) / sigma;
                e.bnScale[static_cast<size_t>(i)] = s;
                e.bnShift[static_cast<size_t>(i)] =
                    n.bn->beta().at(i) -
                    s * n.bn->runningMean().at(i);
            }
            break;
        }
        case compile::Op::MaxPool:
        case compile::Op::AvgPool:
            e.poolK = n.poolK;
            e.poolStride = n.poolStride;
            break;
        case compile::Op::Input:
        case compile::Op::Relu:
        case compile::Op::Flatten:
        case compile::Op::Add:
            break;
        }
        execs.push_back(std::move(e));
    }
    return execs;
}

Tensor
runGraph(const compile::Graph &g, const std::vector<NodeExec> &execs,
         const Tensor &batch, ThreadPool &tp, int input_bits,
         std::vector<arch::EngineStats> &stats,
         PhaseSample *phases, const uint64_t *image_ids,
         arch::EngineStats *per_image, int64_t per_image_stride)
{
    FORMS_ASSERT(stats.size() == execs.size(),
                 "runGraph: stats accumulators must parallel execs");
    FORMS_ASSERT(image_ids, "runGraph: image stream ids are required");

    // Reference-counted value slots, indexed by node id. The input
    // node aliases the caller's batch; every other node owns its
    // output until the last consumer (or the graph output) is done.
    struct Slot
    {
        const Tensor *ref = nullptr;
        Tensor owned;
        int remaining = 0;
    };
    std::vector<Slot> slots(static_cast<size_t>(g.capacity()));
    for (const NodeExec &e : execs)
        for (int in : e.inputs)
            ++slots[static_cast<size_t>(in)].remaining;
    ++slots[static_cast<size_t>(g.output())].remaining;

    // The engine set of matrix exec `idx`, wired to this call's stream
    // ids, per-image accumulators and the next free phase samples.
    auto stageEngines = [&](size_t idx) {
        StageEngines se;
        for (const arch::CrossbarEngine &eng : execs[idx].replicas)
            se.replicas.push_back(&eng);
        se.imageIds = image_ids;
        if (per_image)
            se.perImage =
                per_image + static_cast<int64_t>(idx) * per_image_stride;
        if (phases) {
            se.phases = phases;
            phases += se.replicas.size();
        }
        return se;
    };

    for (size_t idx = 0; idx < execs.size(); ++idx) {
        const NodeExec &e = execs[idx];
        // Wall-clock span per node; the dynamic name is only built
        // when a trace session is live, and recording touches nothing
        // the computation reads (the observer invariant).
        obs::TraceScope node_scope(
            obs::traceEnabled() ? "node " + e.name : std::string());
        Slot &out = slots[static_cast<size_t>(e.nodeId)];
        auto in = [&](size_t i) -> const Tensor & {
            return *slots[static_cast<size_t>(e.inputs[i])].ref;
        };

        switch (e.op) {
        case compile::Op::Input:
            out.ref = &batch;
            break;
        case compile::Op::Conv:
            out.owned = convStage(in(0), stageEngines(idx), {}, e.bias,
                                  e.chanScale, e.outC, e.k, e.stride, e.pad,
                                  input_bits, e.scale, tp, &stats[idx]);
            break;
        case compile::Op::Dense:
            out.owned = denseStage(in(0), stageEngines(idx), e.bias, e.outC,
                                   input_bits, e.scale, tp, &stats[idx]);
            break;
        case compile::Op::BatchNorm:
            out.owned = batchNormStage(in(0), e.bnScale, e.bnShift, tp);
            break;
        case compile::Op::Relu:
            out.owned = relu(in(0));
            break;
        case compile::Op::MaxPool:
            out.owned = maxPool2d(in(0), e.poolK, e.poolStride, nullptr);
            break;
        case compile::Op::AvgPool:
            out.owned = avgPool2d(in(0), e.poolK, e.poolStride);
            break;
        case compile::Op::Flatten: {
            const Tensor &x = in(0);
            const int64_t n = x.dim(0);
            out.owned = x.reshaped({n, x.numel() / n});
            break;
        }
        case compile::Op::Add: {
            // Join node: fixed left-then-right accumulation order, so
            // the float sums are reproducible (DESIGN.md §4). Steal
            // the left operand's buffer when this is its last use
            // instead of deep-copying a full activation tensor.
            Slot &lhs = slots[static_cast<size_t>(e.inputs[0])];
            if (lhs.remaining == 1 && lhs.ref == &lhs.owned)
                out.owned = std::move(lhs.owned);
            else
                out.owned = in(0);
            out.owned.add(in(1));
            break;
        }
        }
        if (!out.ref)
            out.ref = &out.owned;

        // Release producer buffers whose consumers are all done.
        for (int src : e.inputs) {
            Slot &p = slots[static_cast<size_t>(src)];
            if (--p.remaining == 0 && p.ref == &p.owned) {
                p.owned = Tensor();
                p.ref = nullptr;
            }
        }
    }
    return *slots[static_cast<size_t>(g.output())].ref;
}

void
recordNodeRows(const std::vector<NodeExec> &execs,
               const arch::EngineStats *stats, int64_t stride,
               RuntimeReport &report)
{
    size_t programmed_idx = 0;
    for (size_t idx = 0; idx < execs.size(); ++idx) {
        const NodeExec &e = execs[idx];
        if (e.replicas.empty())
            continue;
        const arch::EngineStats &s =
            stats[static_cast<int64_t>(idx) * stride];
        if (programmed_idx < report.layers.size())
            report.layers[programmed_idx].stats.merge(s);
        else
            report.layers.push_back({e.name, s, e.replicas[0].crossbars()});
        report.presentations += s.presentations;
        ++programmed_idx;
    }
}

} // namespace forms::sim

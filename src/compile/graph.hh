/**
 * @file
 * Layer-graph IR for the crossbar compiler.
 *
 * A compile::Graph is a DAG of Nodes with explicit tensor edges: each
 * node names its producer nodes in `inputs`, so non-sequential
 * topologies (residual joins) are first-class instead of being hidden
 * inside composite layers. Matrix nodes (Conv/Dense) and BatchNorm
 * nodes borrow their parameters from the backing nn::Network, which
 * must outlive the graph — compiler passes (compile/passes.hh) mutate
 * those parameters in place, and the executor (sim/pipeline_runtime.hh)
 * maps them onto crossbars.
 *
 * Thread-safety: a Graph has no internal synchronization. Build and
 * mutate it (addNode/bypass/inferShapes) from one thread; once
 * construction and passes are done, const queries (topoOrder, dump,
 * consumers, node) are safe to call concurrently.
 */

#ifndef FORMS_COMPILE_GRAPH_HH
#define FORMS_COMPILE_GRAPH_HH

#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace forms::nn {
class Conv2D;
class Dense;
class BatchNorm2D;
} // namespace forms::nn

namespace forms::compile {

/** Operation performed by one graph node. */
enum class Op
{
    Input,      //!< the network input placeholder (exactly one)
    Conv,       //!< 2-d convolution (crossbar-programmed)
    Dense,      //!< fully connected (crossbar-programmed)
    BatchNorm,  //!< eval-mode per-channel affine (foldable)
    Relu,       //!< elementwise max(x, 0)
    MaxPool,    //!< 2-d max pooling
    AvgPool,    //!< 2-d average pooling
    Flatten,    //!< NCHW -> (N, C*H*W)
    Add,        //!< elementwise join of two equal-shape inputs
};

/** Short mnemonic, e.g. "conv", "add". */
const char *opName(Op op);

/** One operation of the layer graph. */
struct Node
{
    int id = -1;
    Op op = Op::Input;
    std::string name;
    std::vector<int> inputs;   //!< producer node ids, in operand order

    // Parameters borrowed from the backing network (op-dependent).
    nn::Conv2D *conv = nullptr;
    nn::Dense *dense = nullptr;
    nn::BatchNorm2D *bn = nullptr;
    int poolK = 0, poolStride = 0;

    /**
     * Digital output stage of a matrix node: when non-empty (set by
     * foldBatchNorm in DigitalScale mode), the executor computes
     * out[oc] = outScale[oc] * mvm[oc] + outBias[oc] in the digital
     * periphery instead of mvm[oc] + layer bias. The programmed
     * weights are untouched, so ADMM constraints survive folding.
     */
    std::vector<float> outScale, outBias;

    /**
     * Static input-quantization scale of a matrix node (the grid step
     * of the unsigned bit-serial DAC feeding it), stamped onto the
     * node's input edge by compile::CalibrationTable::attachTo. 0
     * means uncalibrated: executors in arch::ScaleMode::Static then
     * refuse the node.
     */
    float inScale = 0.0f;

    /**
     * Input grid resolution (DAC bits) `inScale` was calibrated for,
     * stamped with it by attachTo; executors refuse a scale whose
     * resolution differs from their mapping's. 0 means a hand-set
     * scale of unrecorded resolution.
     */
    int inBits = 0;

    /**
     * Measured input bit-density of a matrix node: calibrated average
     * fragment EIC divided by the input grid's bit width, in (0, 1],
     * stamped by compile::CalibrationTable::attachTo from a table
     * whose calibrator recorded EIC. 0 means unmeasured. Consumed
     * only by the WorkModel::EicTime schedule objective — it is a
     * timing-model annotation and never touches execution, so logits
     * are bit-identical with or without it (docs/ARCHITECTURE.md).
     */
    float eicDensity = 0.0f;

    /** Per-sample output shape, set by Graph::inferShapes(). */
    Shape outShape;
};

/** DAG of layer operations with explicit tensor edges. */
class Graph
{
  public:
    Graph() = default;

    /** Append a node; returns its id. Ids are stable across bypass(). */
    int addNode(Op op, std::string name, std::vector<int> inputs);

    Node &node(int id);
    const Node &node(int id) const;

    /** True when `id` names a node that has not been bypassed. */
    bool alive(int id) const;

    /** Number of live nodes. */
    size_t size() const;

    /** Id bound: every node id is in [0, capacity()). */
    int capacity() const { return static_cast<int>(nodes_.size()); }

    /** The single Input node's id (-1 until one is added). */
    int input() const { return input_; }

    /** The node whose value is the network output. */
    int output() const { return output_; }
    void setOutput(int id);

    /** Live node ids that read node `id`'s value. */
    std::vector<int> consumers(int id) const;

    /**
     * Remove a single-input node, rewiring its consumers (and the
     * graph output, if it was `id`) to its producer. Used by folding
     * passes to delete absorbed nodes.
     */
    void bypass(int id);

    /**
     * Deterministic topological order of the live nodes (Kahn's
     * algorithm, smallest-id-first tie break). Panics on a cycle.
     */
    std::vector<int> topoOrder() const;

    /**
     * Infer every node's per-sample output shape from the input
     * sample shape (e.g. {3, 32, 32}), validating operand shapes
     * along the way. fatal()s on a mismatch.
     */
    void inferShapes(const Shape &sample);

    /** Multi-line human-readable dump (one node per line). */
    std::string dump() const;

  private:
    std::vector<Node> nodes_;
    std::vector<uint8_t> dead_;
    int input_ = -1;
    int output_ = -1;
};

} // namespace forms::compile

#endif // FORMS_COMPILE_GRAPH_HH

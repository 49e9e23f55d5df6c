/**
 * @file
 * Full-size workload specifications for the performance model: the
 * exact layer dimensions of VGG-16 (CIFAR), ResNet-18 and ResNet-50
 * (CIFAR-100 & ImageNet input sizes), plus the per-network
 * compression profiles reported in the paper's Tables I/II.
 * Performance depends only on these dimensions and statistics — not on
 * trained weights — so the full-size networks are exact here even
 * though training runs on scaled models.
 */

#ifndef FORMS_SIM_WORKLOADS_HH
#define FORMS_SIM_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace forms::sim {

/** One layer of a workload (convolution or fully connected). */
struct LayerSpec
{
    std::string name;
    bool conv = true;
    int64_t inC = 0, outC = 0;   //!< channels (conv) or dims (dense)
    int64_t kernel = 1;
    int64_t stride = 1;
    int64_t pad = 0;
    int64_t inH = 1, inW = 1;
    bool pools = false;          //!< followed by max-pooling

    /** Output spatial extent. */
    int64_t outH() const
    {
        return conv ? (inH + 2 * pad - kernel) / stride + 1 : 1;
    }

    int64_t outW() const
    {
        return conv ? (inW + 2 * pad - kernel) / stride + 1 : 1;
    }

    /** 2-d weight format rows (kernel^2 * inC or dense input dim). */
    int64_t rows() const { return conv ? kernel * kernel * inC : inC; }

    /** 2-d weight format cols (filters / output neurons). */
    int64_t cols() const { return outC; }

    /** Input-vector presentations per frame. */
    int64_t presentations() const { return conv ? outH() * outW() : 1; }

    /** Multiply-accumulate operations per frame (x2 for GOP counts). */
    int64_t macs() const { return rows() * cols() * presentations(); }
};

/** A whole network workload. */
struct Workload
{
    std::string name;
    std::vector<LayerSpec> layers;

    /** Giga-operations per frame (2 ops per MAC). */
    double gopsPerFrame() const;

    /** Total weights. */
    int64_t totalWeights() const;
};

/** Per-network compression profile (paper Tables I/II). */
struct CompressionProfile
{
    std::string name;
    double pruneRatio = 1.0;   //!< structured weight reduction
    int weightBits = 8;

    /** Per-dimension keep fraction (uniform split of the ratio). */
    double keepFraction() const;
};

// Full-size workload builders.
Workload vgg16Cifar();
Workload resnet18Cifar();
Workload resnet18Imagenet();
Workload resnet50Cifar();
Workload resnet50Imagenet();

/** The paper's evaluated (workload, profile) pairs for Figs 13/14. */
struct EvalCase
{
    std::string label;       //!< e.g. "VGG16 CIFAR-100"
    Workload workload;
    CompressionProfile profile;
};

/** Figure 13 cases (CIFAR-10). */
std::vector<EvalCase> figure13Cases();

/** Figure 14 cases (CIFAR-100 + ImageNet). */
std::vector<EvalCase> figure14Cases();

} // namespace forms::sim

#endif // FORMS_SIM_WORKLOADS_HH

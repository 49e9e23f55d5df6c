#include "sim/workloads.hh"

#include <cmath>

#include "common/logging.hh"

namespace forms::sim {

double
Workload::gopsPerFrame() const
{
    double macs = 0.0;
    for (const auto &l : layers)
        macs += static_cast<double>(l.macs());
    return 2.0 * macs / 1e9;
}

int64_t
Workload::totalWeights() const
{
    int64_t n = 0;
    for (const auto &l : layers)
        n += l.rows() * l.cols();
    return n;
}

double
CompressionProfile::keepFraction() const
{
    FORMS_ASSERT(pruneRatio >= 1.0, "prune ratio below 1");
    return 1.0 / std::sqrt(pruneRatio);
}

namespace {

LayerSpec
convLayer(std::string name, int64_t in_c, int64_t out_c, int64_t k,
          int64_t stride, int64_t pad, int64_t hw, bool pools = false)
{
    LayerSpec l;
    l.name = std::move(name);
    l.conv = true;
    l.inC = in_c;
    l.outC = out_c;
    l.kernel = k;
    l.stride = stride;
    l.pad = pad;
    l.inH = hw;
    l.inW = hw;
    l.pools = pools;
    return l;
}

LayerSpec
denseLayer(std::string name, int64_t in_dim, int64_t out_dim)
{
    LayerSpec l;
    l.name = std::move(name);
    l.conv = false;
    l.inC = in_dim;
    l.outC = out_dim;
    return l;
}

/** Append one ResNet basic block (two 3x3 convs + optional 1x1 proj). */
void
basicBlock(Workload &w, const std::string &name, int64_t in_c,
           int64_t out_c, int64_t stride, int64_t hw)
{
    w.layers.push_back(
        convLayer(name + ".conv1", in_c, out_c, 3, stride, 1, hw));
    const int64_t hw2 = hw / stride;
    w.layers.push_back(
        convLayer(name + ".conv2", out_c, out_c, 3, 1, 1, hw2));
    if (stride != 1 || in_c != out_c) {
        w.layers.push_back(
            convLayer(name + ".proj", in_c, out_c, 1, stride, 0, hw));
    }
}

/** Append one ResNet bottleneck block (1x1 -> 3x3 -> 1x1 + proj). */
void
bottleneckBlock(Workload &w, const std::string &name, int64_t in_c,
                int64_t mid_c, int64_t out_c, int64_t stride, int64_t hw)
{
    w.layers.push_back(
        convLayer(name + ".conv1", in_c, mid_c, 1, 1, 0, hw));
    w.layers.push_back(
        convLayer(name + ".conv2", mid_c, mid_c, 3, stride, 1, hw));
    const int64_t hw2 = hw / stride;
    w.layers.push_back(
        convLayer(name + ".conv3", mid_c, out_c, 1, 1, 0, hw2));
    if (stride != 1 || in_c != out_c) {
        w.layers.push_back(
            convLayer(name + ".proj", in_c, out_c, 1, stride, 0, hw));
    }
}

Workload
resnet18(int64_t input_hw, bool imagenet_stem, int64_t classes)
{
    Workload w;
    w.name = imagenet_stem ? "ResNet18-ImageNet" : "ResNet18-CIFAR";
    int64_t hw = input_hw;
    if (imagenet_stem) {
        w.layers.push_back(convLayer("stem", 3, 64, 7, 2, 3, hw, true));
        hw = hw / 2 / 2;   // stride-2 stem + 3x3/2 max pool
    } else {
        w.layers.push_back(convLayer("stem", 3, 64, 3, 1, 1, hw));
    }
    const int64_t stage_c[4] = {64, 128, 256, 512};
    int64_t in_c = 64;
    for (int s = 0; s < 4; ++s) {
        for (int b = 0; b < 2; ++b) {
            const int64_t stride = (s > 0 && b == 0) ? 2 : 1;
            basicBlock(w, strfmt("s%d_b%d", s, b), in_c, stage_c[s],
                       stride, hw);
            hw /= stride;
            in_c = stage_c[s];
        }
    }
    w.layers.push_back(denseLayer("fc", 512, classes));
    return w;
}

Workload
resnet50(int64_t input_hw, bool imagenet_stem, int64_t classes)
{
    Workload w;
    w.name = imagenet_stem ? "ResNet50-ImageNet" : "ResNet50-CIFAR";
    int64_t hw = input_hw;
    if (imagenet_stem) {
        w.layers.push_back(convLayer("stem", 3, 64, 7, 2, 3, hw, true));
        hw = hw / 2 / 2;
    } else {
        w.layers.push_back(convLayer("stem", 3, 64, 3, 1, 1, hw));
    }
    const int64_t mid_c[4] = {64, 128, 256, 512};
    const int blocks[4] = {3, 4, 6, 3};
    int64_t in_c = 64;
    for (int s = 0; s < 4; ++s) {
        for (int b = 0; b < blocks[s]; ++b) {
            const int64_t stride = (s > 0 && b == 0) ? 2 : 1;
            bottleneckBlock(w, strfmt("s%d_b%d", s, b), in_c, mid_c[s],
                            mid_c[s] * 4, stride, hw);
            hw /= stride;
            in_c = mid_c[s] * 4;
        }
    }
    w.layers.push_back(denseLayer("fc", 2048, classes));
    return w;
}

} // namespace

Workload
vgg16Cifar()
{
    Workload w;
    w.name = "VGG16-CIFAR";
    const struct { int64_t c; int reps; } stages[5] = {
        {64, 2}, {128, 2}, {256, 3}, {512, 3}, {512, 3}};
    int64_t hw = 32;
    int64_t in_c = 3;
    for (int s = 0; s < 5; ++s) {
        for (int r = 0; r < stages[s].reps; ++r) {
            const bool last = r == stages[s].reps - 1;
            w.layers.push_back(convLayer(
                strfmt("conv%d_%d", s + 1, r + 1), in_c, stages[s].c,
                3, 1, 1, hw, last));
            in_c = stages[s].c;
        }
        hw /= 2;
    }
    w.layers.push_back(denseLayer("fc1", 512, 512));
    w.layers.push_back(denseLayer("fc2", 512, 512));
    w.layers.push_back(denseLayer("fc3", 512, 10));
    return w;
}

Workload
resnet18Cifar()
{
    return resnet18(32, false, 100);
}

Workload
resnet18Imagenet()
{
    return resnet18(224, true, 1000);
}

Workload
resnet50Cifar()
{
    return resnet50(32, false, 100);
}

Workload
resnet50Imagenet()
{
    return resnet50(224, true, 1000);
}

std::vector<EvalCase>
figure13Cases()
{
    // Table I: VGG16 CIFAR-10 prune 41.2x, ResNet18 CIFAR-10 50.85x.
    std::vector<EvalCase> cases;
    {
        Workload w = vgg16Cifar();
        w.name = "VGG16-CIFAR10";
        cases.push_back({"VGG16 CIFAR-10", w, {"vgg16-c10", 41.2, 8}});
    }
    {
        Workload w = resnet18Cifar();
        w.name = "ResNet18-CIFAR10";
        cases.push_back(
            {"ResNet18 CIFAR-10", w, {"resnet18-c10", 50.85, 8}});
    }
    return cases;
}

std::vector<EvalCase>
figure14Cases()
{
    // Table II prune ratios: VGG16-C100 8.15x, RN18-C100 6.65x,
    // RN50-C100 9.18x, RN18-ImageNet 2.0x, RN50-ImageNet 3.67x.
    std::vector<EvalCase> cases;
    cases.push_back(
        {"VGG16 CIFAR-100", vgg16Cifar(), {"vgg16-c100", 8.15, 8}});
    cases.push_back(
        {"ResNet18 CIFAR-100", resnet18Cifar(),
         {"resnet18-c100", 6.65, 8}});
    cases.push_back(
        {"ResNet50 CIFAR-100", resnet50Cifar(),
         {"resnet50-c100", 9.18, 8}});
    cases.push_back(
        {"ResNet18 ImageNet", resnet18Imagenet(),
         {"resnet18-in", 2.0, 8}});
    cases.push_back(
        {"ResNet50 ImageNet", resnet50Imagenet(),
         {"resnet50-in", 3.67, 8}});
    return cases;
}

} // namespace forms::sim

#include "nn/dataset.hh"

namespace forms::nn {

DatasetConfig
DatasetConfig::mnistLike(uint64_t seed)
{
    DatasetConfig c;
    c.classes = 10;
    c.channels = 1;
    c.height = 28;
    c.width = 28;
    c.noise = 0.5f;
    c.seed = seed;
    return c;
}

DatasetConfig
DatasetConfig::cifar10Like(uint64_t seed)
{
    DatasetConfig c;
    c.classes = 10;
    c.channels = 3;
    c.height = 32;
    c.width = 32;
    c.noise = 0.6f;
    c.seed = seed;
    return c;
}

DatasetConfig
DatasetConfig::cifar100Like(uint64_t seed)
{
    DatasetConfig c;
    c.classes = 20;          // scaled-down stand-in for 100 classes
    c.channels = 3;
    c.height = 32;
    c.width = 32;
    c.trainPerClass = 48;
    c.testPerClass = 12;
    c.noise = 0.75f;         // harder task than CIFAR-10-like
    c.seed = seed;
    return c;
}

DatasetConfig
DatasetConfig::imagenetLike(uint64_t seed)
{
    DatasetConfig c;
    c.classes = 25;          // scaled-down stand-in for 1000 classes
    c.channels = 3;
    c.height = 32;           // downscaled spatial extent (CPU budget)
    c.width = 32;
    c.trainPerClass = 40;
    c.testPerClass = 10;
    c.noise = 0.9f;          // hardest task
    c.seed = seed;
    return c;
}

namespace {

/** Sigma of a sample's multiplicative prototype jitter. */
constexpr float kScaleJitter = 0.25f;

/** Separable 3x3 box smoothing to give prototypes spatial structure. */
Tensor
smooth(const Tensor &img)
{
    const int64_t c = img.dim(0), h = img.dim(1), w = img.dim(2);
    Tensor out({c, h, w});
    for (int64_t ch = 0; ch < c; ++ch)
        for (int64_t y = 0; y < h; ++y)
            for (int64_t x = 0; x < w; ++x) {
                float acc = 0.0f;
                int cnt = 0;
                for (int dy = -1; dy <= 1; ++dy)
                    for (int dx = -1; dx <= 1; ++dx) {
                        const int64_t yy = y + dy, xx = x + dx;
                        if (yy < 0 || yy >= h || xx < 0 || xx >= w)
                            continue;
                        acc += img.data()[(ch * h + yy) * w + xx];
                        ++cnt;
                    }
                out.data()[(ch * h + y) * w + x] =
                    acc / static_cast<float>(cnt);
            }
    return out;
}

} // namespace

SyntheticImageDataset::SyntheticImageDataset(const DatasetConfig &cfg)
    : cfg_(cfg)
{
    Rng rng(cfg.seed);
    std::vector<Tensor> protos;
    protos.reserve(static_cast<size_t>(cfg.classes));
    for (int k = 0; k < cfg.classes; ++k) {
        Tensor p({cfg.channels, cfg.height, cfg.width});
        p.fillGaussian(rng, 0.0f, 1.0f);
        // Two smoothing passes concentrate energy at low spatial
        // frequencies, which convolution kernels can learn from.
        p = smooth(smooth(p));
        // Renormalize prototype energy so all classes are equally "loud".
        const double norm = std::sqrt(p.squaredNorm() /
                                      static_cast<double>(p.numel()));
        p.scale(static_cast<float>(1.0 / std::max(norm, 1e-9)));
        protos.push_back(std::move(p));
    }
    train_ = makeSplit(cfg.trainPerClass, rng, protos);
    test_ = makeSplit(cfg.testPerClass, rng, protos);
}

Split
SyntheticImageDataset::makeSplit(int per_class, Rng &rng,
                                 const std::vector<Tensor> &protos) const
{
    const int n = per_class * cfg_.classes;
    Split split;
    split.images = Tensor({n, cfg_.channels, cfg_.height, cfg_.width});
    split.labels.resize(static_cast<size_t>(n));

    const int64_t img_sz = static_cast<int64_t>(cfg_.channels) *
        cfg_.height * cfg_.width;
    int64_t idx = 0;
    for (int k = 0; k < cfg_.classes; ++k) {
        const Tensor &proto = protos[static_cast<size_t>(k)];
        for (int s = 0; s < per_class; ++s, ++idx) {
            const float alpha = 1.0f + kScaleJitter *
                static_cast<float>(rng.gaussian());
            float *dst = split.images.data() + idx * img_sz;
            for (int64_t i = 0; i < img_sz; ++i) {
                dst[i] = alpha * proto.data()[i] + cfg_.noise *
                    static_cast<float>(rng.gaussian());
                if (cfg_.nonneg && dst[i] < 0.0f)
                    dst[i] = 0.0f;
            }
            split.labels[static_cast<size_t>(idx)] = k;
        }
    }
    return split;
}

Split
SyntheticImageDataset::batch(const std::vector<int> &order, int begin,
                             int count) const
{
    FORMS_ASSERT(begin >= 0 &&
                 begin + count <= static_cast<int>(order.size()),
                 "batch range out of bounds");
    Split b;
    b.images = Tensor({count, cfg_.channels, cfg_.height, cfg_.width});
    b.labels.resize(static_cast<size_t>(count));
    const int64_t img_sz = static_cast<int64_t>(cfg_.channels) *
        cfg_.height * cfg_.width;
    for (int i = 0; i < count; ++i) {
        const int src = order[static_cast<size_t>(begin + i)];
        const float *from = train_.images.data() + src * img_sz;
        float *to = b.images.data() + i * img_sz;
        std::copy(from, from + img_sz, to);
        b.labels[static_cast<size_t>(i)] =
            train_.labels[static_cast<size_t>(src)];
    }
    return b;
}

std::vector<int>
SyntheticImageDataset::trainOrder() const
{
    std::vector<int> order(static_cast<size_t>(train_.size()));
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    return order;
}

void
shuffle(std::vector<int> &order, Rng &rng)
{
    for (size_t i = order.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(rng.below(i));
        std::swap(order[i - 1], order[j]);
    }
}

} // namespace forms::nn

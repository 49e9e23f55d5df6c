#include "nn/trainer.hh"

namespace forms::nn {

namespace {

constexpr float kLr = 0.05f;           //!< initial learning rate
constexpr float kMomentum = 0.9f;
constexpr float kWeightDecay = 5e-4f;  //!< on conv/dense weights only
constexpr float kLrDecay = 0.5f;       //!< multiplied in every kLrDecayEpochs
constexpr int kLrDecayEpochs = 8;

} // namespace

Trainer::Trainer(Network &net, const SyntheticImageDataset &data,
                 TrainConfig cfg)
    : net_(net), data_(data), cfg_(cfg), rng_(cfg.seed), lrNow_(kLr)
{
}

void
Trainer::ensureVelocity()
{
    auto params = net_.params();
    if (velocity_.size() == params.size())
        return;
    velocity_.clear();
    velocity_.reserve(params.size());
    for (auto &p : params)
        velocity_.emplace_back(p.value->shape());
}

double
Trainer::step(const Split &batch)
{
    net_.zeroGrads();
    Tensor logits = net_.forward(batch.images, true);
    Tensor grad;
    const double loss =
        Network::crossEntropy(logits, batch.labels, &grad);
    net_.backward(grad);
    if (gradHook_)
        gradHook_();
    sgdUpdate();
    if (postStepHook_)
        postStepHook_();
    return loss;
}

void
Trainer::sgdUpdate()
{
    ensureVelocity();
    auto params = net_.params();
    for (size_t i = 0; i < params.size(); ++i) {
        Tensor &w = *params[i].value;
        Tensor &g = *params[i].grad;
        Tensor &v = velocity_[i];
        const bool decay = params[i].isConvWeight || params[i].isDenseWeight;
        float *pw = w.data();
        float *pg = g.data();
        float *pv = v.data();
        for (int64_t j = 0; j < w.numel(); ++j) {
            float grad = pg[j];
            if (decay)
                grad += kWeightDecay * pw[j];
            pv[j] = kMomentum * pv[j] - lrNow_ * grad;
            pw[j] += pv[j];
        }
    }
}

double
Trainer::evalTest()
{
    // Evaluate in modest chunks to bound the activation working set.
    const Split &t = data_.test();
    const int64_t n = t.size();
    const int chunk = 64;
    int64_t correct = 0;
    const int64_t img_sz = t.images.numel() / std::max<int64_t>(n, 1);
    for (int64_t at = 0; at < n; at += chunk) {
        const int64_t cnt = std::min<int64_t>(chunk, n - at);
        Tensor imgs({cnt, t.images.dim(1), t.images.dim(2),
                     t.images.dim(3)});
        std::copy(t.images.data() + at * img_sz,
                  t.images.data() + (at + cnt) * img_sz, imgs.data());
        std::vector<int> labels(
            t.labels.begin() + at, t.labels.begin() + at + cnt);
        correct += static_cast<int64_t>(
            net_.accuracy(imgs, labels) * static_cast<double>(cnt) + 0.5);
    }
    return n ? static_cast<double>(correct) / static_cast<double>(n) : 0.0;
}

TrainResult
Trainer::run()
{
    TrainResult res;
    auto order = data_.trainOrder();
    for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
        if (epoch > 0 && epoch % kLrDecayEpochs == 0)
            lrNow_ *= kLrDecay;
        shuffle(order, rng_);
        double loss_acc = 0.0;
        int batches = 0;
        const int n = static_cast<int>(order.size());
        for (int at = 0; at + cfg_.batchSize <= n; at += cfg_.batchSize) {
            Split b = data_.batch(order, at, cfg_.batchSize);
            loss_acc += step(b);
            ++batches;
        }
        res.finalTrainLoss = batches ? loss_acc / batches : 0.0;
        if (epochHook_)
            epochHook_(epoch);
    }
    res.testAccuracy = evalTest();
    return res;
}

} // namespace forms::nn

/**
 * @file
 * SGD trainer for the DNN substrate: learning rate 0.05, momentum 0.9,
 * weight decay 5e-4 on conv/dense weights, and the learning rate
 * halved every 8 epochs. Per-step hooks let the ADMM framework inject
 * its augmented-Lagrangian gradient terms and mask / sign
 * re-projection (polarization-preserving updates).
 */

#ifndef FORMS_NN_TRAINER_HH
#define FORMS_NN_TRAINER_HH

#include <functional>

#include "nn/dataset.hh"
#include "nn/network.hh"

namespace forms::nn {

/** Training hyper-parameters. */
struct TrainConfig
{
    int epochs = 10;
    int batchSize = 32;
    uint64_t seed = 7;
};

/** Result of a training run. */
struct TrainResult
{
    double finalTrainLoss = 0.0;
    double testAccuracy = 0.0;
};

/**
 * Mini-batch SGD trainer.
 *
 * Two hooks connect the ADMM framework:
 *  - gradHook: called after backward, before the SGD step; may add
 *    regularization gradients (e.g. rho * (W - Z + U)).
 *  - postStepHook: called after the SGD step; may re-project weights
 *    (e.g. enforce pruning masks / polarization signs during fine-tune).
 */
class Trainer
{
  public:
    using Hook = std::function<void()>;

    Trainer(Network &net, const SyntheticImageDataset &data,
            TrainConfig cfg);

    /** Install the ADMM gradient hook. */
    void setGradHook(Hook h) { gradHook_ = std::move(h); }

    /** Install the post-step projection hook. */
    void setPostStepHook(Hook h) { postStepHook_ = std::move(h); }

    /** Install a per-epoch hook (e.g. ADMM Z/U update, sign refresh). */
    void setEpochHook(std::function<void(int)> h)
    {
        epochHook_ = std::move(h);
    }

    /** Run the configured number of epochs. */
    TrainResult run();

    /** One SGD step on a batch; returns the batch loss. */
    double step(const Split &batch);

    /** Evaluate test accuracy. */
    double evalTest();

  private:
    Network &net_;
    const SyntheticImageDataset &data_;
    TrainConfig cfg_;
    Rng rng_;
    Hook gradHook_;
    Hook postStepHook_;
    std::function<void(int)> epochHook_;
    std::vector<Tensor> velocity_;
    float lrNow_;

    void ensureVelocity();
    void sgdUpdate();
};

} // namespace forms::nn

#endif // FORMS_NN_TRAINER_HH

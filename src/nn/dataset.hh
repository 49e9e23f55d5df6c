/**
 * @file
 * Synthetic, deterministic image-classification datasets.
 *
 * MNIST / CIFAR-10/100 / ImageNet are not available offline, so all
 * accuracy experiments run on class-prototype datasets with matched
 * input geometry: each class owns a smoothed random prototype image and
 * samples are noisy scaled copies. Task difficulty is controlled by the
 * noise level and the number of classes, which is sufficient because
 * every paper experiment we reproduce measures *relative* accuracy
 * changes (vs. fragment size, pruning, quantization, variation), not
 * absolute ImageNet accuracy. See DESIGN.md §2.
 */

#ifndef FORMS_NN_DATASET_HH
#define FORMS_NN_DATASET_HH

#include <vector>

#include "tensor/tensor.hh"

namespace forms::nn {

/** A labelled split: NCHW images plus integer labels. */
struct Split
{
    Tensor images;            //!< (n, c, h, w)
    std::vector<int> labels;  //!< size n

    /** Number of examples. */
    int64_t size() const { return images.rank() ? images.dim(0) : 0; }
};

/** Configuration of a synthetic dataset. */
struct DatasetConfig
{
    int classes = 10;      //!< number of classes
    int channels = 3;      //!< image channels
    int height = 32;       //!< image height
    int width = 32;        //!< image width
    int trainPerClass = 64;
    int testPerClass = 16;
    float noise = 0.55f;   //!< additive Gaussian sample noise
    uint64_t seed = 1;

    /**
     * Clamp sample pixels at zero, like real (unsigned) image sensor
     * data. The crossbar runtimes encode first-layer inputs with an
     * unsigned bit-serial DAC (DESIGN.md §2), so training on the
     * unsigned domain makes that encoding exact end to end; the
     * default zero-mean samples exercise the signed FP path.
     */
    bool nonneg = false;

    /** MNIST-like geometry (1x28x28, 10 classes). */
    static DatasetConfig mnistLike(uint64_t seed = 1);
    /** CIFAR-10-like geometry (3x32x32, 10 classes). */
    static DatasetConfig cifar10Like(uint64_t seed = 2);
    /** CIFAR-100-like geometry (3x32x32, more classes => harder). */
    static DatasetConfig cifar100Like(uint64_t seed = 3);
    /** ImageNet-like geometry (3x64x64 downscaled, many classes). */
    static DatasetConfig imagenetLike(uint64_t seed = 4);
};

/**
 * Class-prototype dataset. Prototypes are Gaussian images passed through
 * a separable box smoothing so they contain spatial structure that conv
 * layers can exploit; samples are alpha * prototype + noise.
 */
class SyntheticImageDataset
{
  public:
    explicit SyntheticImageDataset(const DatasetConfig &cfg);

    const Split &train() const { return train_; }
    const Split &test() const { return test_; }
    const DatasetConfig &config() const { return cfg_; }

    /**
     * Copy a mini-batch [begin, begin+count) from the training split
     * under the given shuffled index order.
     */
    Split batch(const std::vector<int> &order, int begin, int count) const;

    /** Identity permutation of training indices (to be shuffled). */
    std::vector<int> trainOrder() const;

  private:
    DatasetConfig cfg_;
    Split train_, test_;

    Split makeSplit(int per_class, Rng &rng,
                    const std::vector<Tensor> &protos) const;
};

/** Fisher-Yates shuffle with the library Rng. */
void shuffle(std::vector<int> &order, Rng &rng);

} // namespace forms::nn

#endif // FORMS_NN_DATASET_HH

#include "sim/variation_study.hh"

#include "common/stats.hh"
#include "nn/trainer.hh"

namespace forms::sim {

VariationStudyResult
runVariationStudy(nn::Network &net, const nn::SyntheticImageDataset &data,
                  const VariationStudyConfig &cfg)
{
    VariationStudyResult res;

    nn::TrainConfig tc;
    tc.epochs = 0;
    nn::Trainer evaluator(net, data, tc);
    res.cleanAccuracy = evaluator.evalTest();

    // Stash original weights of every prunable parameter.
    std::vector<nn::ParamRef> params;
    std::vector<Tensor> saved;
    for (auto &p : net.params()) {
        if (!p.isConvWeight && !p.isDenseWeight)
            continue;
        params.push_back(p);
        saved.push_back(*p.value);
    }

    Rng rng(2024);
    reram::VariationConfig vc;
    vc.sigma = cfg.sigma;
    RunningStat acc_stat;
    for (int run = 0; run < cfg.runs; ++run) {
        for (size_t i = 0; i < params.size(); ++i)
            reram::perturbWeights(*params[i].value, vc, rng);
        acc_stat.add(evaluator.evalTest());
        for (size_t i = 0; i < params.size(); ++i)
            *params[i].value = saved[i];
    }
    res.meanAccuracy = acc_stat.mean();
    res.stddevAccuracy = acc_stat.stddev();
    return res;
}

} // namespace forms::sim

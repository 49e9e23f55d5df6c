#include "admm/compressor.hh"

namespace forms::admm {

namespace {

constexpr float kRho = 2e-3f;            //!< augmented-Lagrangian penalty
constexpr int kSignRefreshEpochs = 2;    //!< paper's M: refresh every M epochs

} // namespace

WeightView
LayerState::view() const
{
    if (param.isConvWeight)
        return WeightView::conv(*param.value);
    return WeightView::dense(*param.value);
}

void
AdmmConfig::validate() const
{
    if (fragSize < 1)
        fatal("AdmmConfig::fragSize = %d, need at least 1", fragSize);
    if (quantBits < 1 || quantBits > 16)
        fatal("AdmmConfig::quantBits = %d, need a value in [1, 16]",
              quantBits);
    if (xbarDim < 1)
        fatal("AdmmConfig::xbarDim = %lld, need at least 1",
              static_cast<long long>(xbarDim));
    const std::pair<const char *, double> keeps[] = {
        {"filterKeep", filterKeep}, {"shapeKeep", shapeKeep}};
    for (const auto &[name, keep] : keeps)
        if (!(keep > 0.0 && keep <= 1.0))
            fatal("AdmmConfig::%s = %g, need a finite value in (0, 1]",
                  name, keep);
    const std::pair<const char *, int> epochs[] = {
        {"admmEpochsPerPhase", admmEpochsPerPhase},
        {"finetuneEpochs", finetuneEpochs}};
    for (const auto &[name, n] : epochs)
        if (n < 0)
            fatal("AdmmConfig::%s = %d, need at least 0", name, n);
}

AdmmCompressor::AdmmCompressor(nn::Network &net,
                               const nn::SyntheticImageDataset &data,
                               AdmmConfig cfg)
    : net_(net), data_(data), cfg_(cfg)
{
    cfg_.validate();
    for (auto &p : net_.params()) {
        if (!p.isConvWeight && !p.isDenseWeight)
            continue;
        LayerState st;
        st.name = p.name;
        st.param = p;
        if (p.isConvWeight) {
            const Tensor &w = *p.value;
            st.plan = FragmentPlan::forConv(w.dim(0), w.dim(1), w.dim(2),
                                            cfg_.fragSize, cfg_.policy);
        } else {
            const Tensor &w = *p.value;
            st.plan = FragmentPlan::forDense(w.dim(0), w.dim(1),
                                             cfg_.fragSize);
        }
        st.z = *p.value;
        st.u = Tensor(p.value->shape());
        layers_.push_back(std::move(st));
    }
    FORMS_ASSERT(!layers_.empty(), "network has no prunable weights");
}

double
AdmmCompressor::evalAccuracy()
{
    nn::TrainConfig tc = cfg_.train;
    tc.epochs = 0;
    nn::Trainer t(net_, data_, tc);
    return t.evalTest();
}

void
AdmmCompressor::enforceAll()
{
    for (auto &st : layers_) {
        WeightView v = st.view();
        if (st.mask)
            applyMask(v, *st.mask);
        if (st.signs)
            projectPolarization(v, st.plan, *st.signs);
        if (st.quantScale > 0.0f) {
            QuantSpec q;
            q.bits = cfg_.quantBits;
            q.scale = st.quantScale;
            projectQuantize(v, q);
        }
    }
}

int64_t
AdmmCompressor::signViolations() const
{
    int64_t n = 0;
    for (const auto &st : layers_) {
        if (!st.signs)
            continue;
        n += countSignViolations(st.view(), st.plan, *st.signs);
    }
    return n;
}

void
AdmmCompressor::admmEpochs(int epochs,
                           const std::function<void(LayerState &)> &proj,
                           bool refresh_signs)
{
    if (epochs <= 0)
        return;
    nn::TrainConfig tc = cfg_.train;
    tc.epochs = epochs;
    nn::Trainer trainer(net_, data_, tc);

    // Augmented-Lagrangian gradient: g += rho * (W - Z + U).
    trainer.setGradHook([this]() {
        for (auto &st : layers_) {
            float *g = st.param.grad->data();
            const float *w = st.param.value->data();
            const float *z = st.z.data();
            const float *u = st.u.data();
            for (int64_t i = 0; i < st.param.value->numel(); ++i)
                g[i] += kRho * (w[i] - z[i] + u[i]);
        }
    });

    // Per-epoch: Z = proj(W + U); U += W - Z; optionally refresh signs.
    trainer.setEpochHook([this, &proj, refresh_signs](int epoch) {
        for (auto &st : layers_) {
            if (refresh_signs && st.signs &&
                (epoch + 1) % kSignRefreshEpochs == 0) {
                // Recompute the target sign from the live weights
                // (paper: update target signs every M epochs).
                st.signs = computeSigns(st.view(), st.plan);
            }
            // Z-update: project W + U onto the constraint set.
            st.z = *st.param.value;
            st.z.add(st.u);
            proj(st);
            // U-update: U += W - Z.
            st.u.add(*st.param.value);
            st.u.sub(st.z);
        }
    });
    trainer.run();
}

void
AdmmCompressor::finetune(int epochs)
{
    if (epochs <= 0)
        return;
    nn::TrainConfig tc = cfg_.train;
    tc.epochs = epochs;
    nn::Trainer trainer(net_, data_, tc);
    trainer.setPostStepHook([this]() { enforceAll(); });
    trainer.run();
}

void
AdmmCompressor::phasePrune()
{
    PruneSpec spec;
    spec.filterKeep = cfg_.filterKeep;
    spec.shapeKeep = cfg_.shapeKeep;
    spec.xbarDim = cfg_.xbarDim;

    admmEpochs(cfg_.admmEpochsPerPhase, [&spec](LayerState &st) {
        WeightView zv = st.param.isConvWeight
            ? WeightView::conv(st.z) : WeightView::dense(st.z);
        projectStructuredPrune(zv, spec);
    }, false);

    // Hard projection of the live weights, then record the mask and
    // re-cut the fragment plan over the surviving rows — polarization
    // fragments must match the compacted hardware mapping.
    for (auto &st : layers_) {
        WeightView v = st.view();
        projectStructuredPrune(v, spec);
        st.mask = extractMask(st.view());
        st.plan = st.plan.restrictedToRows(st.mask->rowKept);
        st.u.fill(0.0f);
    }
    finetune(cfg_.finetuneEpochs);
}

void
AdmmCompressor::phasePolarize()
{
    // Initial signs from the (pruned) model — paper: the sign of each
    // fragment is determined by the structurally pruned model.
    for (auto &st : layers_)
        st.signs = computeSigns(st.view(), st.plan);

    admmEpochs(cfg_.admmEpochsPerPhase, [this](LayerState &st) {
        WeightView zv = st.param.isConvWeight
            ? WeightView::conv(st.z) : WeightView::dense(st.z);
        if (st.mask)
            applyMask(zv, *st.mask);
        projectPolarization(zv, st.plan, *st.signs);
    }, true);

    // Final signs + hard projection; fine-tune preserves them.
    for (auto &st : layers_) {
        st.signs = computeSigns(st.view(), st.plan);
        WeightView v = st.view();
        if (st.mask)
            applyMask(v, *st.mask);
        projectPolarization(v, st.plan, *st.signs);
        st.u.fill(0.0f);
    }
    finetune(cfg_.finetuneEpochs);
}

void
AdmmCompressor::phaseQuantize()
{
    admmEpochs(cfg_.admmEpochsPerPhase, [this](LayerState &st) {
        WeightView zv = st.param.isConvWeight
            ? WeightView::conv(st.z) : WeightView::dense(st.z);
        if (st.mask)
            applyMask(zv, *st.mask);
        if (st.signs)
            projectPolarization(zv, st.plan, *st.signs);
        QuantSpec q;
        q.bits = cfg_.quantBits;
        projectQuantize(zv, q);
    }, false);

    for (auto &st : layers_) {
        QuantSpec q;
        q.bits = cfg_.quantBits;
        st.quantScale = projectQuantize(st.view(), q);
    }
    // One constraint-preserving pass settles biases/batch norms around
    // the quantized weights (weights themselves stay on the grid via
    // enforceAll after every step).
    finetune(std::max(1, cfg_.finetuneEpochs / 2));
    enforceAll();
}

CompressionOutcome
AdmmCompressor::run()
{
    CompressionOutcome out;
    out.accuracyBefore = evalAccuracy();

    if (cfg_.prune)
        phasePrune();
    if (cfg_.polarize)
        phasePolarize();
    if (cfg_.quantize)
        phaseQuantize();
    enforceAll();

    out.accuracyAfter = evalAccuracy();
    out.signViolations = signViolations();

    for (auto &st : layers_) {
        const int64_t total = st.param.value->numel();
        out.totalWeights += total;
        if (st.mask) {
            out.keptWeights += st.mask->keptRows() * st.mask->keptCols();
        } else {
            out.keptWeights += total;
        }
    }
    out.pruneRatio = out.keptWeights
        ? static_cast<double>(out.totalWeights) /
          static_cast<double>(out.keptWeights)
        : 1.0;
    return out;
}

} // namespace forms::admm

#include "sim/calibrator.hh"

#include <algorithm>
#include <cmath>

#include "obs/trace.hh"

namespace forms::sim {

namespace {

/** Percentile policy: fraction of presentation maxima covered. */
constexpr double kPercentile = 0.995;

} // namespace

const char *
calibPolicyName(CalibPolicy policy)
{
    switch (policy) {
    case CalibPolicy::AbsMax: return "absmax";
    case CalibPolicy::Percentile: return "percentile";
    }
    return "?";
}

Calibrator::Calibrator(const compile::Graph &graph,
                       std::vector<admm::LayerState> &layers,
                       RuntimeConfig rcfg, CalibratorConfig ccfg)
    : ccfg_(ccfg), inputBits_(rcfg.mapping.inputBits)
{
    // Observation pass: idealized per-presentation scales (so nothing
    // clips while measuring), recording into this calibrator.
    rcfg.scaleMode = arch::ScaleMode::PerPresentation;
    rcfg.recorder = &recorder_;
    runtime_ = std::make_unique<PipelineRuntime>(graph, layers, rcfg);
}

Calibrator::~Calibrator() = default;

void
Calibrator::observe(const Tensor &batch)
{
    FORMS_TRACE_SCOPE("Calibrator::observe");
    runtime_->forward(batch);
    images_ += batch.dim(0);
}

compile::CalibrationTable
Calibrator::table() const
{
    FORMS_TRACE_SCOPE("Calibrator::table");
    FORMS_ASSERT(images_ > 0,
                 "calibrator: table() before any observe() call");
    const uint32_t qmax = (1u << inputBits_) - 1;
    compile::CalibrationTable out;
    out.setInputBits(inputBits_);
    // std::map iteration is name-ordered: the table layout is a pure
    // function of the observations, independent of thread count.
    for (const auto &[name, maxima] : recorder_.maxima) {
        FORMS_ASSERT(!maxima.empty(),
                     "calibrator: node '%s' recorded no presentations",
                     name.c_str());
        float range = 0.0f;
        if (ccfg_.policy == CalibPolicy::AbsMax) {
            for (float m : maxima)
                range = std::max(range, m);
        } else {
            // Nearest-rank percentile of the per-presentation max
            // distribution.
            std::vector<float> sorted(maxima);
            std::sort(sorted.begin(), sorted.end());
            size_t rank = static_cast<size_t>(std::ceil(
                kPercentile * static_cast<double>(sorted.size())));
            rank = std::max<size_t>(1, rank);
            range = sorted[std::min(sorted.size() - 1, rank - 1)];
        }
        if (!std::isfinite(range))
            fatal("calibrator: node '%s' saw a non-finite input range "
                  "(%g); calibrate on finite inputs",
                  name.c_str(), static_cast<double>(range));
        // A node whose calibration inputs were all non-positive (e.g.
        // dead channels) still needs a valid grid.
        if (range <= 0.0f)
            range = 1.0f;

        compile::CalibEntry e;
        e.node = name;
        e.range = range;
        e.scale = range / static_cast<float>(qmax);
        e.observations = maxima.size();
        // Bit-level activity: the stage kernels folded every quantized
        // presentation's fragment EICs into recorder_.eic during the
        // same observation pass.
        const auto eic_it = recorder_.eic.find(name);
        if (eic_it != recorder_.eic.end() &&
            eic_it->second.histogram().total() > 0) {
            e.avgEic =
                static_cast<float>(eic_it->second.averageEic());
            e.eicFragments = eic_it->second.histogram().total();
        }
        out.set(std::move(e));
    }
    FORMS_ASSERT(out.size() > 0,
                 "calibrator: graph has no programmed nodes to "
                 "calibrate");
    return out;
}

} // namespace forms::sim

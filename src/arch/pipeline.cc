#include "arch/pipeline.hh"

#include <cmath>

#include "common/logging.hh"

namespace forms::arch {

namespace {

constexpr int kBaseStages = 22;    //!< paper: 22-stage pipeline
constexpr int kPoolingStages = 4;  //!< +4 when the layer max-pools

} // namespace

PipelineTiming
layerPipelineTiming(const PipelineConfig &cfg, uint64_t presentations,
                    double bit_cycles_per_presentation, bool pools)
{
    FORMS_ASSERT(bit_cycles_per_presentation >= 0.0,
                 "negative initiation interval");
    PipelineTiming t;
    const int depth = kBaseStages + (pools ? kPoolingStages : 0);
    // The crossbar/ADC stage is the initiation interval: a new
    // presentation can enter only every `bit_cycles` cycles.
    const double ii = std::max(1.0, bit_cycles_per_presentation);
    t.fillNs = static_cast<double>(depth) * cfg.cycleNs;
    t.streamNs = ii * cfg.cycleNs *
        static_cast<double>(presentations ? presentations - 1 : 0);
    t.totalNs = t.fillNs + t.streamNs;
    t.cycles = static_cast<uint64_t>(
        std::llround(t.totalNs / cfg.cycleNs));
    return t;
}

} // namespace forms::arch

#include "sim/runtime.hh"

namespace forms::sim {

double
RuntimeReport::modelTimeNs() const
{
    double ns = 0.0;
    for (const auto &l : layers)
        ns += l.stats.timeNs;
    return ns;
}

double
RuntimeReport::modelEnergyPj() const
{
    double pj = 0.0;
    for (const auto &l : layers)
        pj += l.stats.adcEnergyPj + l.stats.crossbarEnergyPj;
    return pj;
}

std::vector<admm::LayerState>
snapshotCompress(nn::Network &net, int frag_size, int quant_bits,
                 admm::PolarizationPolicy policy)
{
    std::vector<admm::LayerState> states;
    for (auto &p : net.params()) {
        if (!p.isConvWeight && !p.isDenseWeight)
            continue;
        admm::LayerState st;
        st.name = p.name;
        st.param = p;
        const Shape &shape = p.value->shape();
        if (p.isConvWeight) {
            st.plan = admm::FragmentPlan::forConv(
                shape[0], shape[1], shape[2], frag_size, policy);
        } else {
            st.plan = admm::FragmentPlan::forDense(shape[0], shape[1],
                                                   frag_size);
        }
        admm::WeightView v = st.view();
        st.signs = admm::computeSigns(v, st.plan);
        admm::projectPolarization(v, st.plan, *st.signs);
        admm::QuantSpec qs;
        qs.bits = quant_bits;
        st.quantScale = admm::projectQuantize(v, qs);
        states.push_back(std::move(st));
    }
    return states;
}

} // namespace forms::sim

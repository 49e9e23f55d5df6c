#include "serve/backends.hh"

namespace forms::serve {

Tensor
PipelineBackend::run(const Tensor &batch, const uint64_t *ids,
                     std::vector<sim::RuntimeReport> &per_request)
{
    per_request.clear();
    return rt_.forwardRequests(batch, ids, &per_request);
}

FailoverBackend::FailoverBackend(const compile::Graph &graph,
                                 std::vector<admm::LayerState> &layers,
                                 sim::PipelineRuntimeConfig cfg,
                                 compile::ScheduleConfig sched)
    : graph_(graph), layers_(layers), cfg_(std::move(cfg)),
      sched_(std::move(sched))
{
    const int chips = std::max(1, sched_.chips);
    alive_.assign(static_cast<size_t>(chips), 1);
    rebuild();
    FORMS_ASSERT(rt_ != nullptr,
                 "failover backend: initial build produced no runtime");
}

void
FailoverBackend::rebuild()
{
    // Surviving cost vectors follow the surviving chips: kill chip k
    // and its ChipSpec disappears with it.
    int n_alive = 0;
    compile::ScheduleConfig scfg = sched_;
    scfg.chipSpecs.clear();
    for (size_t c = 0; c < alive_.size(); ++c) {
        if (!alive_[c])
            continue;
        ++n_alive;
        if (!sched_.chipSpecs.empty())
            scfg.chipSpecs.push_back(sched_.chipSpecs[c]);
    }
    if (n_alive == 0) {
        rt_.reset();
        return;
    }
    scfg.chips = n_alive;
    rt_ = std::make_unique<sim::PipelineRuntime>(
        graph_, compile::Schedule::partition(graph_, scfg), layers_,
        cfg_);
}

void
FailoverBackend::killChip(int chip)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (chip < 0 || static_cast<size_t>(chip) >= alive_.size() ||
        !alive_[static_cast<size_t>(chip)])
        return;   // unknown or already dead: nothing to kill
    for (int pending : pendingKills_)
        if (pending == chip)
            return;
    pendingKills_.push_back(chip);
}

int
FailoverBackend::aliveChips() const
{
    std::lock_guard<std::mutex> lk(mu_);
    int n = 0;
    for (uint8_t a : alive_)
        n += a ? 1 : 0;
    return n - static_cast<int>(pendingKills_.size());
}

int
FailoverBackend::failovers() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return failovers_;
}

Tensor
FailoverBackend::run(const Tensor &batch, const uint64_t *ids,
                     std::vector<sim::RuntimeReport> &per_request)
{
    // Observe at most one pending kill per batch: the chip died while
    // this batch was in flight, so its results are lost — rebuild
    // over the survivors, then tell the server to requeue.
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!pendingKills_.empty()) {
            const int chip = pendingKills_.front();
            pendingKills_.erase(pendingKills_.begin());
            alive_[static_cast<size_t>(chip)] = 0;
            ++failovers_;
            rebuild();
            throw ChipFailure(chip);
        }
    }
    if (!rt_)
        throw ChipFailure(-1);   // fleet exhausted
    per_request.clear();
    return rt_->forwardRequests(batch, ids, &per_request);
}

} // namespace forms::serve

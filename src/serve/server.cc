#include "serve/server.hh"

#include <cstring>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace forms::serve {

Backend::~Backend() = default;

ChipFailure::ChipFailure(int chip)
    : chip_(chip),
      msg_(chip >= 0
               ? strfmt("chip %d died under the in-flight batch", chip)
               : std::string("no serving chips left"))
{
}

namespace {

double
usSince(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

} // namespace

void
ServerConfig::validate() const
{
    FORMS_ASSERT(maxBatch >= 1,
                 "ServerConfig::maxBatch = %d, need at least 1", maxBatch);
    FORMS_ASSERT(maxDelayUs >= 0,
                 "ServerConfig::maxDelayUs = %lld, need a value >= 0 "
                 "(0 = flush at once)", static_cast<long long>(maxDelayUs));
    FORMS_ASSERT(maxRequeues >= 0,
                 "ServerConfig::maxRequeues = %d, need a value >= 0",
                 maxRequeues);
}

Server::Server(Backend &backend, ServerConfig cfg)
    : backend_(backend), cfg_(cfg)
{
    cfg_.validate();
    batcher_ = std::thread([this] { batcherLoop(); });
}

Server::~Server()
{
    shutdown();
}

std::future<Response>
Server::submit(Tensor image)
{
    return submit(std::move(image),
                  nextId_.fetch_add(1, std::memory_order_relaxed));
}

std::future<Response>
Server::submit(Tensor image, uint64_t id)
{
    std::promise<Response> promise;
    std::future<Response> fut = promise.get_future();
    const auto now = std::chrono::steady_clock::now();

    size_t depth = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Requests the batcher cannot serve resolve here, at once:
        // none of them ever reaches the backend.
        const bool invalid =
            sampleShape_ && image.shape() != *sampleShape_;
        const bool full = cfg_.queueCapacity > 0 &&
            queue_.size() >= cfg_.queueCapacity;
        if (stopping_ || invalid || full) {
            Response r;
            r.status = stopping_ ? Status::ShutDown
                : invalid ? Status::Invalid : Status::Rejected;
            r.requestId = id;
            promise.set_value(std::move(r));
            if (cfg_.metrics && r.status != Status::ShutDown)
                cfg_.metrics->counterAdd(invalid ? "serve.invalid"
                                                 : "serve.rejected", 1);
            return fut;
        }
        if (!sampleShape_)
            sampleShape_ = image.shape();
        Pending p;
        p.id = id;
        p.image = std::move(image);
        p.promise = std::move(promise);
        p.enqueued = now;
        queue_.push_back(std::move(p));
        depth = queue_.size();
    }
    if (cfg_.metrics) {
        cfg_.metrics->counterAdd("serve.accepted", 1);
        cfg_.metrics->gaugeSet("serve.queue_depth",
                               static_cast<double>(depth));
    }
    cv_.notify_all();
    return fut;
}

void
Server::shutdown()
{
    std::call_once(shutdownOnce_, [this] {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stopping_ = true;
        }
        cv_.notify_all();
        if (batcher_.joinable())
            batcher_.join();
    });
}

void
Server::batcherLoop()
{
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return;   // stopping_ and fully drained

            // The oldest request anchors the deadline: flush once the
            // batch is full, the deadline passes, or shutdown begins
            // (drain immediately — queued work is still served).
            const auto deadline =
                queue_.front().enqueued +
                std::chrono::microseconds(cfg_.maxDelayUs);
            while (static_cast<int>(queue_.size()) < cfg_.maxBatch &&
                   !stopping_) {
                if (cv_.wait_until(lk, deadline) ==
                    std::cv_status::timeout)
                    break;
            }

            const size_t take =
                std::min(queue_.size(),
                         static_cast<size_t>(cfg_.maxBatch));
            batch.reserve(take);
            for (size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            if (cfg_.metrics)
                cfg_.metrics->gaugeSet(
                    "serve.queue_depth",
                    static_cast<double>(queue_.size()));
        }
        runBatch(std::move(batch));
    }
}

void
Server::runBatch(std::vector<Pending> batch)
{
    const size_t n = batch.size();
    if (n == 0)
        return;
    const auto dispatched = std::chrono::steady_clock::now();

    // Stack the per-request samples into one batch tensor.
    const Shape &sample = batch[0].image.shape();
    Shape batch_shape;
    batch_shape.push_back(static_cast<int64_t>(n));
    for (int64_t d : sample)
        batch_shape.push_back(d);
    Tensor stacked(batch_shape);
    const int64_t sample_elems = batch[0].image.numel();
    std::vector<uint64_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
        // submit() admits only the pinned shape.
        FORMS_ASSERT(batch[i].image.shape() == sample,
                     "serve: request %llu's image shape differs from "
                     "the batch's",
                     static_cast<unsigned long long>(batch[i].id));
        std::memcpy(stacked.data() +
                        static_cast<int64_t>(i) * sample_elems,
                    batch[i].image.data(),
                    static_cast<size_t>(sample_elems) * sizeof(float));
        ids[i] = batch[i].id;
    }

    std::vector<sim::RuntimeReport> per_request;
    Tensor out;
    try {
        out = backend_.run(stacked, ids.data(), per_request);
    } catch (const ChipFailure &f) {
        // The batch died with the chip: nothing was produced, so the
        // whole batch goes back to the queue front (or terminal
        // Status::Requeued for requests out of retry budget).
        requeueBatch(std::move(batch), f.chip());
        return;
    } catch (const std::exception &e) {
        // Any other backend failure is terminal for this batch only:
        // resolve its requests with a typed error and keep the
        // batcher serving.
        failBatch(std::move(batch), dispatched, e.what());
        return;
    }
    FORMS_ASSERT(out.dim(0) == static_cast<int64_t>(n) &&
                     per_request.size() == n,
                 "serve: backend returned %lld rows / %zu reports for "
                 "a batch of %zu",
                 static_cast<long long>(out.dim(0)), per_request.size(),
                 n);
    const int64_t out_elems = out.numel() / static_cast<int64_t>(n);

    const auto done = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
        Response r;
        r.status = Status::Ok;
        r.requestId = batch[i].id;
        r.logits = Tensor({out_elems});
        std::memcpy(r.logits.data(),
                    out.data() + static_cast<int64_t>(i) * out_elems,
                    static_cast<size_t>(out_elems) * sizeof(float));
        r.report = std::move(per_request[i]);
        r.batchSize = static_cast<int>(n);
        r.queueUs = usSince(batch[i].enqueued, dispatched);
        r.totalUs = usSince(batch[i].enqueued, done);
        r.requeues = batch[i].requeues;
        if (cfg_.metrics) {
            cfg_.metrics->histObserve("serve.queue_us", r.queueUs);
            cfg_.metrics->histObserve("serve.latency_us", r.totalUs);
        }
        batch[i].promise.set_value(std::move(r));
    }
    if (cfg_.metrics) {
        cfg_.metrics->counterAdd("serve.completed",
                                 static_cast<uint64_t>(n));
        cfg_.metrics->counterAdd("serve.batches", 1);
        cfg_.metrics->histObserve("serve.batch_size",
                                  static_cast<double>(n));
    }
}

void
Server::failBatch(std::vector<Pending> batch,
                  std::chrono::steady_clock::time_point dispatched,
                  const char *what)
{
    const auto done = std::chrono::steady_clock::now();
    for (Pending &p : batch) {
        Response r;
        r.status = Status::BackendError;
        r.requestId = p.id;
        r.batchSize = static_cast<int>(batch.size());
        r.queueUs = usSince(p.enqueued, dispatched);
        r.totalUs = usSince(p.enqueued, done);
        r.requeues = p.requeues;
        p.promise.set_value(std::move(r));
    }
    if (cfg_.metrics)
        cfg_.metrics->counterAdd("serve.backend_errors", 1);
    warn("serve: backend error (%s); failed %zu request(s)", what,
         batch.size());
}

void
Server::requeueBatch(std::vector<Pending> batch, int chip)
{
    uint64_t requeued = 0, dropped = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Walk the batch back-to-front and push_front, so the batch
        // re-enters the queue head in its original order, ahead of
        // anything that arrived while it was in flight — a failed
        // request never loses its place.
        for (size_t i = batch.size(); i-- > 0;) {
            Pending &p = batch[i];
            if (p.requeues >= cfg_.maxRequeues) {
                Response r;
                r.status = Status::Requeued;
                r.requestId = p.id;
                r.requeues = p.requeues;
                p.promise.set_value(std::move(r));
                ++dropped;
                continue;
            }
            ++p.requeues;
            queue_.push_front(std::move(p));
            ++requeued;
        }
    }
    if (cfg_.metrics) {
        cfg_.metrics->counterAdd("serve.chip_failures", 1);
        if (requeued)
            cfg_.metrics->counterAdd("serve.requeued", requeued);
        if (dropped)
            cfg_.metrics->counterAdd("serve.requeue_dropped", dropped);
    }
    warn("serve: %s; requeued %llu request(s), dropped %llu",
         chip >= 0 ? strfmt("chip %d failed", chip).c_str()
                   : "no serving chips left",
         static_cast<unsigned long long>(requeued),
         static_cast<unsigned long long>(dropped));
    cv_.notify_all();
}

} // namespace forms::serve

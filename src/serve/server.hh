/**
 * @file
 * Online serving layer: dynamic micro-batching over the offline
 * runtimes.
 *
 * serve::Server accepts single-image requests from any number of
 * producer threads, coalesces them into micro-batches under a latency
 * deadline — a batch flushes when it reaches ServerConfig::maxBatch
 * images or when the oldest queued request has waited
 * ServerConfig::maxDelayUs, whichever comes first — and runs each
 * batch on a serve::Backend (a sim::PipelineRuntime adapter,
 * serve/backends.hh). Each request's result comes back
 * through the std::future returned by submit().
 *
 * Determinism contract (docs/SERVING.md): a request's logits and
 * per-request stats depend only on (request image, request id, the
 * programmed network) — NOT on which batch the request lands in, what
 * else is in that batch, or the order requests arrived. The backend
 * keys every per-presentation RNG stream by the stable request id
 * (sim::PipelineRuntime::forwardRequests), so dynamically batched
 * results are bit-identical to a single-request run with the same id.
 *
 * Admission control: the pending queue is bounded by
 * ServerConfig::queueCapacity; a submit() that finds it full resolves
 * immediately with Status::Rejected (load shedding — the request is
 * never queued). The first accepted request pins the server's sample
 * shape; a later request of any other shape resolves immediately with
 * Status::Invalid and never reaches the backend. A submit() after
 * shutdown() resolves with Status::ShutDown. A backend exception other
 * than ChipFailure fails only the batch it hit: those requests resolve
 * with Status::BackendError and the batcher keeps serving.
 *
 * Thread-safety: submit() and shutdown() are safe from any thread,
 * concurrently. One internal batcher thread owns the backend, so the
 * (stateful) runtimes are never entered concurrently.
 */

#ifndef FORMS_SERVE_SERVER_HH
#define FORMS_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "sim/runtime.hh"
#include "tensor/tensor.hh"

namespace forms::obs {
class MetricsRegistry;
} // namespace forms::obs

namespace forms::serve {

/** Terminal state of one submitted request. */
enum class Status
{
    Ok,        //!< served; logits/report/timings are valid
    Rejected,  //!< shed at admission: the pending queue was full
    ShutDown,  //!< submitted after (or during) shutdown()
    Invalid,   //!< image shape differs from the server's pinned shape

    /**
     * Lost to chip failures: the request was requeued
     * ServerConfig::maxRequeues times (each time a chip died under
     * the batch serving it) and a further failure hit it — there is
     * no healthy fleet left to retry on within budget.
     */
    Requeued,

    /**
     * The backend threw something other than ChipFailure while
     * running the batch serving this request. Every request of that
     * batch resolves with this status (no logits); the server keeps
     * serving later batches.
     */
    BackendError,
};

/**
 * Thrown by a Backend when a simulated chip dies under the batch it
 * was serving: the batch's in-flight results are lost with the chip.
 * The server catches it, pushes the batch back onto the *front* of
 * the pending queue in its original order (no request lost, none
 * duplicated) and bumps each request's requeue count; a request that
 * already spent its ServerConfig::maxRequeues budget resolves with
 * Status::Requeued instead. The throwing backend is expected to have
 * re-partitioned itself onto the surviving fleet before throwing, so
 * the retry lands on healthy chips (serve::FailoverBackend).
 */
class ChipFailure : public std::exception
{
  public:
    explicit ChipFailure(int chip);

    /** Fleet index of the chip that died (-1: no fleet left). */
    int chip() const { return chip_; }

    const char *what() const noexcept override { return msg_.c_str(); }

  private:
    int chip_;
    std::string msg_;
};

/** What a request's future resolves to. */
struct Response
{
    Status status = Status::ShutDown;
    uint64_t requestId = 0;

    /**
     * The request's logits, flattened to one row (numel = output
     * elements per sample). Bit-identical to row 0 of a
     * single-request forwardRequests() with the same id, regardless
     * of batching (the serving determinism contract).
     */
    Tensor logits;

    /** Per-request per-layer stats, same rows as an offline report. */
    sim::RuntimeReport report;

    int batchSize = 0;     //!< images in the micro-batch that served this
    double queueUs = 0.0;  //!< submit -> batch dispatch
    double totalUs = 0.0;  //!< submit -> response ready

    /**
     * Chip-failure requeues this request survived before resolving
     * (0 on the happy path). On Status::Requeued, the spent budget.
     */
    int requeues = 0;
};

/**
 * What the server runs micro-batches on. Implementations adapt one
 * offline runtime (serve/backends.hh); called only from the server's
 * batcher thread, one batch at a time.
 */
class Backend
{
  public:
    virtual ~Backend();

    /**
     * Run one coalesced micro-batch. `ids[i]` is row i's stable
     * request id — the backend must key row i's per-presentation
     * randomness by it (forwardRequests). `per_request` receives one
     * report per row, in row order.
     */
    virtual Tensor run(const Tensor &batch, const uint64_t *ids,
                       std::vector<sim::RuntimeReport> &per_request) = 0;
};

/** Batching, admission and observability knobs. */
struct ServerConfig
{
    int maxBatch = 8;          //!< flush when this many requests queued
    int64_t maxDelayUs = 1000; //!< flush when the oldest waited this long
    size_t queueCapacity = 64; //!< pending bound; 0 = unbounded

    /**
     * Chip-failure retry budget per request: how many times a request
     * may be requeued (ChipFailure) before it resolves with
     * Status::Requeued.
     */
    int maxRequeues = 2;

    /**
     * Metrics sink (borrowed, may be null). Records the serve.*
     * counters/gauges/histograms of docs/OBSERVABILITY.md. A pure
     * observer: responses are bit-identical with or without it.
     */
    obs::MetricsRegistry *metrics = nullptr;

    /**
     * Abort, naming the field, unless maxBatch >= 1, maxDelayUs >= 0
     * and maxRequeues >= 0. The Server constructor calls it.
     */
    void validate() const;
};

/** Dynamic micro-batching request server over one Backend. */
class Server
{
  public:
    /** Starts the batcher thread. `backend` is borrowed. */
    Server(Backend &backend, ServerConfig cfg);

    /** shutdown() (drains pending work), then joins the batcher. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Submit one image (a single sample, e.g. CHW) under an explicit
     * request id. The first accepted image pins the server's sample
     * shape; an image of any other shape resolves at once with
     * Status::Invalid. The id keys the request's RNG streams: the same
     * (image, id) yields bit-identical logits whatever batch it lands
     * in. Ids need not be unique, but two in-flight requests sharing
     * an id share noise streams.
     */
    std::future<Response> submit(Tensor image, uint64_t id);

    /** Submit under the next id from the server's own counter. */
    std::future<Response> submit(Tensor image);

    /**
     * Stop admitting, serve everything already queued, stop the
     * batcher. Idempotent and safe to race from several threads;
     * returns after the batcher has exited.
     */
    void shutdown();

  private:
    struct Pending
    {
        uint64_t id = 0;
        Tensor image;
        std::promise<Response> promise;
        std::chrono::steady_clock::time_point enqueued;
        int requeues = 0;   //!< chip-failure retries so far
    };

    void batcherLoop();
    void runBatch(std::vector<Pending> batch);
    void requeueBatch(std::vector<Pending> batch, int chip);
    void failBatch(std::vector<Pending> batch,
                   std::chrono::steady_clock::time_point dispatched,
                   const char *what);

    Backend &backend_;
    ServerConfig cfg_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Pending> queue_;   //!< guarded by mu_
    bool stopping_ = false;       //!< guarded by mu_
    std::optional<Shape> sampleShape_;  //!< guarded by mu_; first accept

    std::atomic<uint64_t> nextId_{0};
    std::once_flag shutdownOnce_;
    std::thread batcher_;
};

} // namespace forms::serve

#endif // FORMS_SERVE_SERVER_HH

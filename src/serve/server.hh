/**
 * @file
 * The serving front door: decode a frame, admit or refuse it, and
 * produce exactly one response frame.
 *
 * Server::handleFrame *is* the in-process loopback transport — the
 * socket layer (serve/socket.hh) and the deterministic tests drive
 * the identical code path, one frame in, one frame out. Control
 * operations (loadModel, stats, shutdown) execute inline; inference
 * operations are admitted into the bounded queue and handed to the
 * batch engine, with the calling (transport) thread blocking on the
 * job's future — concurrency comes from many transport threads, and
 * coalescing from the queue.
 *
 * Failure policy: nothing a client sends can terminate the server.
 * Malformed frames, unknown models, schema mismatches, corrupt model
 * files, and overload all map to error *responses* with distinct
 * status bytes.
 */

#ifndef WCT_SERVE_SERVER_HH
#define WCT_SERVE_SERVER_HH

#include <atomic>
#include <string>
#include <string_view>

#include "serve/engine.hh"
#include "serve/frame_handler.hh"
#include "serve/metrics.hh"
#include "serve/queue.hh"
#include "serve/registry.hh"
#include "serve/wire.hh"

namespace wct::serve
{

/** Server tuning and policy knobs. */
struct ServerConfig
{
    /** Admission queue capacity (jobs, not rows). */
    std::size_t queueDepth = 256;

    /** Most jobs coalesced into one engine batch. */
    std::size_t maxBatch = 64;

    /** Permit loadModel frames (off for untrusted clients). */
    bool allowRemoteLoad = true;

    /** Permit shutdown frames. */
    bool allowRemoteShutdown = true;

    /** Deadline budget (ms) applied to requests that carry none
     * (Request::budgetMs == 0); 0 = no default deadline. */
    std::uint32_t defaultDeadlineMs = 0;

    /** Cap on any client-supplied budget (ms); 0 = uncapped. A
     * client asking for more gets silently clamped — the server owns
     * how long it is willing to hold a request. */
    std::uint32_t maxDeadlineMs = 0;

    /** Latency SLO (µs) on the sliding-window p99 of predict /
     * classify traffic; 0 disables shedding for that class. When the
     * window p99 drifts past the SLO, new requests of that class are
     * answered Status::Shed instead of queueing. */
    std::uint64_t sloPredictP99Us = 0;
    std::uint64_t sloClassifyP99Us = 0;

    /** Window samples required before the SLO is enforced, so a cold
     * server never sheds on one slow warm-up request. */
    std::uint64_t sloMinSamples = 32;

    /** Start the batch engine in the constructor. Tests turn this
     * off and call Server::startEngine() themselves to make
     * in-queue deadline expiry deterministic. */
    bool startEngine = true;
};

/** One serving instance; see file comment. */
class Server : public FrameHandler
{
  public:
    explicit Server(ServerConfig config = {});

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Drains admitted work, then stops the engine. */
    ~Server();

    /** Load or hot-reload a model file (also used at startup). */
    bool loadModel(const std::string &path, const std::string &alias,
                   ModelInfo *info, std::string *err);

    /** Load a model from a pipeline artifact store by content key
     * (`wct serve --model-key`); see ModelRegistry::loadFromStore. */
    bool loadModelFromStore(const ArtifactStore &store,
                            const std::string &keyHex,
                            const std::string &alias, ModelInfo *info,
                            std::string *err);

    /**
     * The loopback transport: one encoded request frame in, one
     * encoded response frame out. Safe to call from any number of
     * threads concurrently.
     */
    std::string handleFrame(std::string_view frame);

    /**
     * Same, for a payload whose envelope a transport already
     * stripped (the socket layer reads envelopes off the stream).
     */
    std::string handlePayload(std::string_view payload) override;

    /** Encoded MalformedFrame response (transport framing errors). */
    std::string malformedResponse(const std::string &reason) override;

    /** Decoded-level entry (the tests' shortcut past the codec). */
    Response handleRequest(Request &&request);

    /** Start the batch engine when ServerConfig::startEngine was
     * off; no-op after the engine is running. */
    void startEngine();

    /** Stop admitting inference work; already-admitted jobs finish. */
    void beginShutdown();

    /** True once a shutdown was requested. */
    bool
    shuttingDown() const override
    {
        return shuttingDown_.load(std::memory_order_acquire);
    }

    /** Block until every admitted job completed and the batcher
     * exited. */
    void drain();

    /** Current metrics, including live queue depth. */
    MetricsSnapshot stats() const;

    const ModelRegistry &registry() const { return registry_; }
    ServingMetrics &metrics() { return metrics_; }

  private:
    Response admitInference(Request &&request);

    /** SLO (µs) configured for an inference opcode; 0 = none. */
    std::uint64_t sloForOp(Opcode op) const;

    ServerConfig config_;
    ModelRegistry registry_;
    ServingMetrics metrics_;
    RequestQueue queue_;
    BatchEngine engine_;
    std::atomic<bool> engineStarted_{false};
    std::atomic<bool> shuttingDown_{false};
};

} // namespace wct::serve

#endif // WCT_SERVE_SERVER_HH

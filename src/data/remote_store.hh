/**
 * @file
 * Remote artifact store backend: an ArtifactStore whose source of
 * truth is a `wct store serve` daemon reached over the WCTSTOR wire
 * protocol (data/store_wire.hh), fronted by a read-through local
 * cache so one warm fleet store fills every worker's disk lazily.
 *
 * Semantics (docs/store.md):
 *
 *  - load: local cache hit wins (and refreshes the entry's LRU
 *    stamp); otherwise the artifact is fetched from the daemon,
 *    verified, written into the cache (evicting the oldest entries
 *    past --store-cache-bytes) and returned.
 *  - verification: the content-addressed kind ("mtree") has
 *    key == fnv1a64(payload) by construction, so every fetch of it is
 *    re-hashed — a corrupt or lying daemon degrades to
 *    warn-and-recompute, never wrong results. Stage-keyed kinds
 *    hash *inputs*, not outputs, and are already envelope-checksummed
 *    and (kind,key)-prefixed end to end.
 *  - store: written to the local cache and uploaded best-effort; an
 *    unreachable daemon costs sharing, not correctness.
 *  - any wire failure (daemon down, malformed response, truncated
 *    frame) is a warning plus a miss; pipelines recompute.
 *
 * Thread safety: one connection guarded by a mutex (collection shards
 * store from a parallel loop); eviction is serialized the same way.
 */

#ifndef WCT_DATA_REMOTE_STORE_HH
#define WCT_DATA_REMOTE_STORE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "data/artifact_store.hh"
#include "data/store_wire.hh"

namespace wct
{

/**
 * Parsed --store-url. Exactly one of unixPath / tcpPort is set:
 * "unix:/path/to.sock" or "tcp:PORT" (loopback only — the store
 * trusts its transport; see docs/store.md "Deployment").
 */
struct StoreEndpoint
{
    std::string unixPath;
    int tcpPort = 0;
};

/** Parse a store URL; nullopt + reason on anything malformed. */
std::optional<StoreEndpoint> parseStoreUrl(const std::string &url,
                                           std::string *err);

/** Configuration of a remote store handle. */
struct RemoteStoreConfig
{
    std::string url;      ///< "unix:PATH" or "tcp:PORT"
    std::string cacheDir; ///< local read-through cache directory

    /** LRU size bound on the cache dir; 0 = unbounded. */
    std::uint64_t cacheBytes = 0;
};

/**
 * Blocking WCTSTOR client: connect once, then one call() at a time
 * (callers serialize; RemoteStore does so behind its mutex). Used
 * directly by the `wct store ping/ls/gc/shutdown` commands.
 */
class StoreClient
{
  public:
    ~StoreClient();
    StoreClient(StoreClient &&other) noexcept;
    StoreClient &operator=(StoreClient &&other) noexcept;

    /** Connect to a daemon endpoint; nullopt + err on failure. */
    static std::optional<StoreClient>
    connect(const StoreEndpoint &endpoint, std::string *err);

    /** Send one request and wait for its response. */
    std::optional<StoreResponse> call(const StoreRequest &request,
                                      std::string *err);

  private:
    explicit StoreClient(int fd) : fd_(fd) {}

    int fd_ = -1;
};

/**
 * Build an ArtifactStore handle over the remote backend. The handle
 * is always enabled; a daemon that is down at construction (or dies
 * later) degrades every remote operation to warn-once + local-only.
 */
ArtifactStore makeRemoteStore(const RemoteStoreConfig &config);

} // namespace wct

#endif // WCT_DATA_REMOTE_STORE_HH

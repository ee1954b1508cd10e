/**
 * @file
 * Content-addressed artifact store: the one cache behind the staged
 * pipeline (src/pipeline), the CLI cache commands, and the serving
 * model registry.
 *
 * Every cached intermediate — collected per-shard samples, trained
 * model trees, classified profile tables, transferability reports —
 * is one *artifact*: a binary-envelope file
 * (data/binary_io layout, FNV-1a checksummed) addressed by a `kind`
 * string plus a 64-bit content key. Keys are derived exclusively
 * through KeyBuilder, the single key-derivation implementation in the
 * tree: canonical little-endian encodings of every stage input are
 * hashed with FNV-1a, so two runs share an artifact iff they would
 * compute identical bytes. (PR 3's collect_cache and PR 4's
 * ModelRegistry each had a private copy of this scheme; both now go
 * through here.)
 *
 * ArtifactStore is a cheap copyable handle over a StoreBackend. The
 * default backend is the local directory store; the remote backend
 * (data/remote_store.hh) speaks the WCTSTOR wire protocol to a
 * `wct store serve` daemon through a read-through local cache, so a
 * fleet of workers shares one warm store. Pipelines and the CLI are
 * agnostic: every backend has the same load/store/list/gc contract
 * and the same miss-means-recompute failure semantics.
 *
 * Local layout: `<dir>/<kind>-<16-hex-digit key>.wctart`. Each
 * payload is prefixed with its own (kind, key) so a renamed or
 * cross-linked file is detected as a mismatch, not silently served.
 * Corrupt, truncated, mismatched, or oversized files load as nullopt
 * with a warning — callers recompute and overwrite. Writes go through
 * a per-writer temp file plus an atomic rename, so concurrent writers
 * to the same key are safe (last rename wins with identical bytes)
 * and a crashed writer never leaves a half-written artifact under the
 * final name.
 */

#ifndef WCT_DATA_ARTIFACT_STORE_HH
#define WCT_DATA_ARTIFACT_STORE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/binary_io.hh"

namespace wct
{

/** Magic and version of .wctart artifact files. */
constexpr char kArtifactMagic[] = "WCTARTF"; ///< 7 chars + NUL = 8
constexpr std::uint32_t kArtifactFormatVersion = 1;

/**
 * The single key-derivation implementation: canonical little-endian
 * field encoding (exact double bit patterns — decimal formatting
 * never enters a key) hashed with FNV-1a. Every stage key, the
 * collection cache key, and the serving model content key are built
 * with this type.
 */
class KeyBuilder
{
  public:
    KeyBuilder &u8(std::uint8_t v);
    KeyBuilder &u32(std::uint32_t v);
    KeyBuilder &u64(std::uint64_t v);
    KeyBuilder &f64(double v);
    KeyBuilder &str(const std::string &s);
    KeyBuilder &bytes(std::string_view raw);

    /** FNV-1a hash of everything appended so far. */
    std::uint64_t key() const { return sink_.hash(); }

  private:
    ByteSink sink_;
};

/** Lower-case 16-hex-digit rendering of a 64-bit key. */
std::string keyHex(std::uint64_t key);

/** Parse a 16-hex-digit key; nullopt on anything else. */
std::optional<std::uint64_t> parseKeyHex(std::string_view hex);

/** Address of one artifact: what it is plus the hash of its inputs. */
struct ArtifactId
{
    std::string kind;       ///< e.g. "collect-shard", "train", "mtree"
    std::uint64_t key = 0;

    /** File name within a store: `<kind>-<16 hex>.wctart`. */
    std::string fileName() const;
};

/**
 * True for kind strings a store will accept: non-empty, at most 64
 * characters, alphanumerics plus '-' and '_'. Kinds become file-name
 * components on both the client and the daemon, so anything else —
 * path separators, '..', control bytes — is rejected at the trust
 * boundary (wire decode and local store alike).
 */
bool validArtifactKind(std::string_view kind);

/** Directory-listing entry of one stored artifact. */
struct ArtifactInfo
{
    ArtifactId id;
    std::uintmax_t fileBytes = 0;
    std::string path;
};

/**
 * One storage implementation behind an ArtifactStore handle. All
 * methods are const and must be safe to call from multiple threads
 * (collection shards store from a parallel loop); implementations
 * keep any connection or eviction state behind internal locks.
 */
class StoreBackend
{
  public:
    virtual ~StoreBackend() = default;

    /** Local directory (the read-through cache dir for remotes). */
    virtual const std::string &dir() const = 0;

    /** Final local path of an artifact (whether or not it exists). */
    virtual std::string path(const ArtifactId &id) const = 0;

    virtual bool contains(const ArtifactId &id) const = 0;
    virtual std::optional<std::string>
    load(const ArtifactId &id) const = 0;
    virtual bool store(const ArtifactId &id,
                       std::string_view payload) const = 0;
    virtual bool remove(const ArtifactId &id) const = 0;
    virtual std::vector<ArtifactInfo> list() const = 0;
    virtual std::vector<ArtifactId>
    gc(const std::vector<ArtifactId> &live,
       std::uint64_t graceSeconds) const = 0;
};

/**
 * The content-addressed store handle. Default-constructed (or
 * empty-dir) stores are *disabled*: loads always miss and stores are
 * dropped, so pipelines run uncached without special-casing. Copies
 * share the backend.
 */
class ArtifactStore
{
  public:
    /** Disabled store: every operation is a cheap no-op. */
    ArtifactStore() = default;

    /** Local directory store; an empty dir stays disabled. */
    explicit ArtifactStore(std::string dir);

    /** Adopt any backend (see data/remote_store.hh). */
    explicit ArtifactStore(std::shared_ptr<const StoreBackend> backend)
        : backend_(std::move(backend))
    {
    }

    bool enabled() const { return backend_ != nullptr; }
    const std::string &dir() const;

    /** Final path of an artifact (whether or not it exists). */
    std::string path(const ArtifactId &id) const;

    /** True when a (possibly invalid) file exists for this id. */
    bool contains(const ArtifactId &id) const;

    /**
     * Load an artifact's payload. nullopt when the store is disabled,
     * the artifact is missing, or it is corrupt / truncated /
     * oversized / recorded under a different (kind, key) — the
     * invalid cases additionally warn, and the caller is expected to
     * recompute and store() over the bad entry.
     */
    std::optional<std::string> load(const ArtifactId &id) const;

    /**
     * Store a payload under its id (atomic write-then-rename; safe
     * against concurrent writers of the same key). Returns false
     * (with a warning) on I/O failure — a failed store is a lost
     * cache entry, never a fatal error.
     */
    bool store(const ArtifactId &id, std::string_view payload) const;

    /** Delete one artifact; false when it was not present. */
    bool remove(const ArtifactId &id) const;

    /** Every artifact in the store, sorted by file name. */
    std::vector<ArtifactInfo> list() const;

    /**
     * Remove every artifact whose id is not in `live`, plus stale
     * .tmp files from crashed writers. Returns the ids removed.
     * Never touches live artifacts or non-store files.
     *
     * Liveness is computed *before* the sweep walks the directory, so
     * an artifact published in between (a worker mid-run on another
     * thread or machine) would look dead to this call. The grace
     * window closes that race: a candidate is removed only when its
     * mtime predates the start of this gc call by at least
     * `graceSeconds`. The default of 0 still protects anything
     * written after the sweep began; fleet deployments pass a wider
     * window (`wct cache gc --grace`, `wct store gc --grace`) sized
     * to their longest plan computation.
     */
    std::vector<ArtifactId> gc(const std::vector<ArtifactId> &live,
                               std::uint64_t graceSeconds = 0) const;

  private:
    std::shared_ptr<const StoreBackend> backend_;
};

} // namespace wct

#endif // WCT_DATA_ARTIFACT_STORE_HH

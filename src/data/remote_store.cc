#include "data/remote_store.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <istream>
#include <mutex>
#include <ostream>
#include <string_view>

#include "util/logging.hh"
#include "util/socket_io.hh"

namespace wct
{

namespace fs = std::filesystem;

std::optional<StoreEndpoint>
parseStoreUrl(const std::string &url, std::string *err)
{
    const auto failWith = [err](const std::string &reason)
        -> std::optional<StoreEndpoint> {
        if (err != nullptr)
            *err = reason;
        return std::nullopt;
    };
    if (url.rfind("unix:", 0) == 0) {
        StoreEndpoint endpoint;
        endpoint.unixPath = url.substr(5);
        if (endpoint.unixPath.empty())
            return failWith("empty unix socket path in '" + url +
                            "'");
        return endpoint;
    }
    if (url.rfind("tcp:", 0) == 0) {
        const std::string digits = url.substr(4);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos)
            return failWith("bad port in '" + url + "'");
        const long port = std::stol(digits);
        if (port < 1 || port > 65535)
            return failWith("port out of range in '" + url + "'");
        StoreEndpoint endpoint;
        endpoint.tcpPort = static_cast<int>(port);
        return endpoint;
    }
    return failWith("store url must be unix:PATH or tcp:PORT, got '" +
                    url + "'");
}

StoreClient::~StoreClient()
{
    closeFd(fd_);
}

StoreClient::StoreClient(StoreClient &&other) noexcept
    : fd_(other.fd_)
{
    other.fd_ = -1;
}

StoreClient &
StoreClient::operator=(StoreClient &&other) noexcept
{
    if (this != &other) {
        closeFd(fd_);
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

std::optional<StoreClient>
StoreClient::connect(const StoreEndpoint &endpoint, std::string *err)
{
    const int fd = endpoint.unixPath.empty()
                       ? connectTcp(endpoint.tcpPort, err)
                       : connectUnix(endpoint.unixPath, err);
    if (fd < 0)
        return std::nullopt;
    return StoreClient(fd);
}

std::optional<StoreResponse>
StoreClient::call(const StoreRequest &request, std::string *err)
{
    FdStreambuf buf(fd_);
    std::ostream out(&buf);
    std::istream in(&buf);
    writeStoreFrame(out, encodeStoreRequest(request));
    if (!out) {
        if (err != nullptr)
            *err = "write failed (daemon closed the connection?)";
        return std::nullopt;
    }
    const auto payload = readStoreFrame(in);
    if (!payload) {
        if (err != nullptr)
            *err = "no response (connection closed or corrupt "
                   "frame)";
        return std::nullopt;
    }
    std::string decode_err;
    auto response = decodeStoreResponse(*payload, &decode_err);
    if (!response) {
        if (err != nullptr)
            *err = decode_err;
        return std::nullopt;
    }
    return response;
}

namespace
{

/** The read-through remote backend; see the header's file comment. */
class RemoteStoreBackend final : public StoreBackend
{
  public:
    explicit RemoteStoreBackend(RemoteStoreConfig config)
        : config_(std::move(config)), cache_(config_.cacheDir)
    {
    }

    const std::string &
    dir() const override
    {
        return cache_.dir();
    }

    std::string
    path(const ArtifactId &id) const override
    {
        return cache_.path(id);
    }

    bool
    contains(const ArtifactId &id) const override
    {
        if (cache_.contains(id))
            return true;
        StoreRequest request;
        request.op = StoreOp::Stat;
        request.artifact = id;
        const auto response = call(std::move(request));
        return response && response->status == StoreStatus::Ok;
    }

    std::optional<std::string>
    load(const ArtifactId &id) const override
    {
        if (auto hit = cache_.load(id)) {
            touch(cache_.path(id));
            return hit;
        }
        StoreRequest request;
        request.op = StoreOp::Load;
        request.artifact = id;
        auto response = call(std::move(request));
        if (!response ||
            response->status == StoreStatus::NotFound)
            return std::nullopt; // a plain miss
        if (response->status != StoreStatus::Ok) {
            wct_warn("store daemon refused load of '", id.fileName(),
                     "': ", storeStatusName(response->status), " (",
                     response->error, "); recomputing");
            return std::nullopt;
        }
        // The content-addressed kind (key == FNV-1a of the payload)
        // re-verifies on every fetch: a corrupt or lying daemon
        // degrades to a recompute, never to wrong bytes served under
        // a content key.
        constexpr std::string_view kContentKind = "mtree";
        if (id.kind == kContentKind &&
            fnv1a64(response->payload) != id.key) {
            wct_warn("remote artifact '", id.fileName(),
                     "' failed content re-hash (tampered or corrupt "
                     "daemon?); recomputing");
            return std::nullopt;
        }
        if (cache_.store(id, response->payload))
            evictToFit(cache_.path(id));
        return std::move(response->payload);
    }

    bool
    store(const ArtifactId &id,
          std::string_view payload) const override
    {
        const bool local = cache_.store(id, payload);
        if (local)
            evictToFit(cache_.path(id));
        StoreRequest request;
        request.op = StoreOp::Store;
        request.artifact = id;
        request.payload = std::string(payload);
        const auto response = call(std::move(request));
        const bool remote =
            response && response->status == StoreStatus::Ok;
        if (response && !remote)
            wct_warn("store daemon refused upload of '",
                     id.fileName(),
                     "': ", storeStatusName(response->status), " (",
                     response->error, ")");
        // A failed upload costs sharing, not correctness: the local
        // copy (or the recompute path) still serves this run.
        return local || remote;
    }

    bool
    remove(const ArtifactId &id) const override
    {
        const bool local = cache_.remove(id);
        StoreRequest request;
        request.op = StoreOp::Remove;
        request.artifact = id;
        const auto response = call(std::move(request));
        return (response && response->status == StoreStatus::Ok) ||
               local;
    }

    std::vector<ArtifactInfo>
    list() const override
    {
        StoreRequest request;
        request.op = StoreOp::List;
        const auto response = call(std::move(request));
        if (!response || response->status != StoreStatus::Ok)
            return cache_.list(); // degrade to what we have locally
        return response->artifacts;
    }

    std::vector<ArtifactId>
    gc(const std::vector<ArtifactId> &live,
       std::uint64_t graceSeconds) const override
    {
        // The local cache is swept quietly with the same liveness;
        // the daemon's sweep is the one reported.
        const auto localRemoved = cache_.gc(live, graceSeconds);
        StoreRequest request;
        request.op = StoreOp::Gc;
        request.live = live;
        request.graceSeconds = graceSeconds;
        const auto response = call(std::move(request));
        if (!response || response->status != StoreStatus::Ok)
            return localRemoved;
        return response->removed;
    }

  private:
    /** One round trip, serialized on the shared connection. A failed
     * call drops the connection and retries once (the daemon may
     * have restarted); a daemon that stays down warns once and turns
     * every later call into a cheap local-only miss. */
    std::optional<StoreResponse>
    call(StoreRequest request) const
    {
        std::lock_guard lock(mutex_);
        request.id =
            nextId_.fetch_add(1, std::memory_order_relaxed);
        for (int attempt = 0; attempt < 2; ++attempt) {
            std::string err;
            if (!client_) {
                const auto endpoint =
                    parseStoreUrl(config_.url, &err);
                if (!endpoint) {
                    warnOnce(err);
                    return std::nullopt;
                }
                auto client = StoreClient::connect(*endpoint, &err);
                if (!client) {
                    warnOnce("store daemon at '" + config_.url +
                             "' unreachable (" + err +
                             "); continuing local-only");
                    return std::nullopt;
                }
                client_ = std::move(*client);
                warned_ = false;
            }
            auto response = client_->call(request, &err);
            if (response) {
                if (response->id != request.id ||
                    response->op != request.op) {
                    warnOnce("store daemon answered with a mismatched "
                             "frame; dropping the connection");
                    client_.reset();
                    return std::nullopt;
                }
                return response;
            }
            client_.reset(); // stale connection: retry once
        }
        warnOnce("store daemon at '" + config_.url +
                 "' dropped the connection; continuing local-only");
        return std::nullopt;
    }

    void
    warnOnce(const std::string &message) const
    {
        if (warned_)
            return;
        warned_ = true;
        wct_warn(message);
    }

    /** Refresh an entry's LRU stamp on a cache hit. */
    void
    touch(const std::string &path) const
    {
        std::error_code ec;
        fs::last_write_time(path, fs::file_time_type::clock::now(),
                            ec);
    }

    /**
     * Enforce --store-cache-bytes: oldest-mtime-first removal until
     * the cache dir fits, never touching the entry just written.
     * POSIX unlink keeps a concurrent reader of an evicted file safe
     * (its descriptor stays valid); a reader that misses instead
     * simply re-fetches from the daemon.
     */
    void
    evictToFit(const std::string &protect) const
    {
        if (config_.cacheBytes == 0 || !cache_.enabled())
            return;
        std::lock_guard lock(evictMutex_);
        struct Entry
        {
            std::string path;
            std::uintmax_t bytes = 0;
            fs::file_time_type mtime;
        };
        std::vector<Entry> entries;
        std::uintmax_t total = 0;
        std::error_code ec;
        for (const auto &file :
             fs::directory_iterator(cache_.dir(), ec)) {
            if (!file.is_regular_file() ||
                file.path().extension() != ".wctart")
                continue;
            Entry entry;
            entry.path = file.path().string();
            entry.bytes = file.file_size(ec);
            entry.mtime = fs::last_write_time(file.path(), ec);
            total += entry.bytes;
            entries.push_back(std::move(entry));
        }
        if (total <= config_.cacheBytes)
            return;
        std::sort(entries.begin(), entries.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.mtime != b.mtime ? a.mtime < b.mtime
                                                : a.path < b.path;
                  });
        for (const Entry &entry : entries) {
            if (entry.path == protect)
                continue;
            if (fs::remove(entry.path, ec) && !ec)
                total -= entry.bytes;
            if (total <= config_.cacheBytes)
                break;
        }
    }

    RemoteStoreConfig config_;
    ArtifactStore cache_;
    mutable std::mutex mutex_;      ///< connection + request id
    mutable std::mutex evictMutex_; ///< cache-size enforcement
    mutable std::optional<StoreClient> client_;
    mutable bool warned_ = false;
    mutable std::atomic<std::uint64_t> nextId_{1};
};

} // namespace

ArtifactStore
makeRemoteStore(const RemoteStoreConfig &config)
{
    return ArtifactStore(
        std::make_shared<RemoteStoreBackend>(config));
}

} // namespace wct

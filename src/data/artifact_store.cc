#include "data/artifact_store.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "util/logging.hh"

namespace wct
{

namespace fs = std::filesystem;

namespace
{

constexpr char kArtifactExtension[] = ".wctart";

/** Monotonic per-process counter making temp file names unique even
 * across threads racing on the same key. */
std::atomic<std::uint64_t> tempCounter{0};

/** The on-disk directory backend; see the header's file comment. */
class LocalStoreBackend final : public StoreBackend
{
  public:
    explicit LocalStoreBackend(std::string dir) : dir_(std::move(dir))
    {
    }

    const std::string &
    dir() const override
    {
        return dir_;
    }

    std::string
    path(const ArtifactId &id) const override
    {
        return (fs::path(dir_) / id.fileName()).string();
    }

    bool
    contains(const ArtifactId &id) const override
    {
        return fs::exists(path(id));
    }

    std::optional<std::string>
    load(const ArtifactId &id) const override
    {
        const std::string file = path(id);
        std::ifstream in(file, std::ios::binary);
        if (!in)
            return std::nullopt; // missing: a plain miss, no warning

        const auto corrupt = [&file]() -> std::optional<std::string> {
            wct_warn("ignoring corrupt or incompatible artifact '",
                     file, "'; recomputing");
            return std::nullopt;
        };
        const auto read = [&in](void *out, std::uint64_t n) {
            return static_cast<bool>(
                in.read(static_cast<char *>(out),
                        static_cast<std::streamsize>(n)));
        };

        // The envelope payload is the prefix (kind, key, payload
        // length) and then the payload. Both are read in place, the
        // payload straight into the string returned, and the trailer
        // is checked over both, in the order store() wrote them.
        constexpr std::uint64_t kLengths = 3 * sizeof(std::uint64_t);
        const auto size = readEnvelopeHeader(
            in, std::string_view(kArtifactMagic, 8),
            kArtifactFormatVersion, kMaxFilePayload);
        std::uint64_t kind_bytes = 0;
        if (!size || *size < kLengths ||
            !read(&kind_bytes, sizeof kind_bytes) ||
            kind_bytes > *size - kLengths)
            return corrupt();
        std::string prefix(kLengths + kind_bytes, '\0');
        std::memcpy(prefix.data(), &kind_bytes, sizeof kind_bytes);
        if (!read(prefix.data() + sizeof kind_bytes,
                  prefix.size() - sizeof kind_bytes))
            return corrupt();
        ByteParser parser(prefix);
        std::string kind;
        std::uint64_t key = 0;
        std::uint64_t payload_bytes = 0;
        parser.getString(kind);
        parser.getU64(key);
        parser.getU64(payload_bytes);
        if (payload_bytes != *size - prefix.size())
            return corrupt();

        std::string payload(payload_bytes, '\0');
        if (!read(payload.data(), payload.size()) ||
            !readEnvelopeTrailer(in, {prefix, payload}))
            return corrupt();

        // The payload self-identifies; a renamed or cross-linked file
        // must not be served under the wrong key.
        if (kind != id.kind || key != id.key) {
            wct_warn("artifact '", file,
                     "' does not match its address (", id.kind, "-",
                     keyHex(id.key), "); recomputing");
            return std::nullopt;
        }
        return payload;
    }

    bool
    store(const ArtifactId &id,
          std::string_view payload) const override
    {
        if (!validArtifactKind(id.kind)) {
            wct_warn("refusing artifact with invalid kind '", id.kind,
                     "'");
            return false;
        }
        std::error_code ec;
        fs::create_directories(dir_, ec);
        if (ec) {
            wct_warn("cannot create artifact store '", dir_, "': ",
                     ec.message());
            return false;
        }

        // The layout load() reads: the envelope payload is the prefix
        // and then the payload, never joined in memory.
        ByteSink prefix;
        prefix.putString(id.kind);
        prefix.putU64(id.key);
        prefix.putU64(payload.size());

        // Unique temp name per writer, then an atomic rename:
        // concurrent writers of one key serialize on the rename
        // (identical content, last one wins) and a crash never
        // leaves a torn final file.
        const std::string final_path = path(id);
        const std::string temp_path =
            final_path + "." + std::to_string(::getpid()) + "." +
            std::to_string(tempCounter.fetch_add(
                1, std::memory_order_relaxed)) +
            ".tmp";
        {
            std::ofstream out(temp_path,
                              std::ios::binary | std::ios::trunc);
            if (!out) {
                wct_warn("cannot write artifact file '", temp_path,
                         "'");
                return false;
            }
            writeEnvelope(out, std::string_view(kArtifactMagic, 8),
                          kArtifactFormatVersion,
                          {prefix.bytes(), payload});
            out.flush();
            if (!out) {
                wct_warn("short write to artifact file '", temp_path,
                         "'");
                fs::remove(temp_path, ec);
                return false;
            }
        }
        fs::rename(temp_path, final_path, ec);
        if (ec) {
            wct_warn("cannot move artifact into place: ",
                     ec.message());
            fs::remove(temp_path, ec);
            return false;
        }
        return true;
    }

    bool
    remove(const ArtifactId &id) const override
    {
        std::error_code ec;
        return fs::remove(path(id), ec) && !ec;
    }

    std::vector<ArtifactInfo>
    list() const override
    {
        std::vector<ArtifactInfo> out;
        if (!fs::is_directory(dir_))
            return out;
        for (const auto &entry : fs::directory_iterator(dir_)) {
            if (!entry.is_regular_file() ||
                entry.path().extension() != kArtifactExtension)
                continue;
            const std::string stem = entry.path().stem().string();
            const std::size_t dash = stem.rfind('-');
            if (dash == std::string::npos)
                continue;
            const auto key = parseKeyHex(
                std::string_view(stem).substr(dash + 1));
            if (!key)
                continue;
            ArtifactInfo info;
            info.id.kind = stem.substr(0, dash);
            info.id.key = *key;
            std::error_code ec;
            info.fileBytes = entry.file_size(ec);
            info.path = entry.path().string();
            out.push_back(std::move(info));
        }
        std::sort(out.begin(), out.end(),
                  [](const ArtifactInfo &a, const ArtifactInfo &b) {
                      return a.path < b.path;
                  });
        return out;
    }

    std::vector<ArtifactId>
    gc(const std::vector<ArtifactId> &live,
       std::uint64_t graceSeconds) const override
    {
        std::vector<ArtifactId> removed;
        if (!fs::is_directory(dir_))
            return removed;

        // Everything written at or after the cutoff survives this
        // sweep: the caller computed liveness *before* calling, so a
        // shard artifact published by a concurrent worker in between
        // would otherwise look dead and be collected (the
        // partially-stitched-run race). The grace window widens the
        // protection for fleet stores.
        const auto cutoff = fs::file_time_type::clock::now() -
                            std::chrono::seconds(graceSeconds);

        std::vector<std::string> keep;
        keep.reserve(live.size());
        for (const ArtifactId &id : live)
            keep.push_back(id.fileName());

        for (const ArtifactInfo &info : list()) {
            if (std::find(keep.begin(), keep.end(),
                          info.id.fileName()) != keep.end())
                continue;
            std::error_code ec;
            const auto mtime = fs::last_write_time(info.path, ec);
            if (ec || mtime >= cutoff)
                continue; // vanished or fresh: keep
            if (fs::remove(info.path, ec) && !ec)
                removed.push_back(info.id);
        }
        // Sweep temp droppings of crashed writers; the same cutoff
        // spares a temp file an alive writer is about to rename.
        for (const auto &entry : fs::directory_iterator(dir_)) {
            if (!entry.is_regular_file() ||
                entry.path().extension() != ".tmp")
                continue;
            std::error_code ec;
            const auto mtime = fs::last_write_time(entry.path(), ec);
            if (ec || mtime >= cutoff)
                continue;
            fs::remove(entry.path(), ec);
        }
        return removed;
    }

  private:
    std::string dir_;
};

const std::string kEmptyDir;

} // namespace

KeyBuilder &
KeyBuilder::u8(std::uint8_t v)
{
    sink_.putU8(v);
    return *this;
}

KeyBuilder &
KeyBuilder::u32(std::uint32_t v)
{
    sink_.putU32(v);
    return *this;
}

KeyBuilder &
KeyBuilder::u64(std::uint64_t v)
{
    sink_.putU64(v);
    return *this;
}

KeyBuilder &
KeyBuilder::f64(double v)
{
    // Canonicalize the one pair of distinct bit patterns that
    // compares equal: configs that are == must never key apart.
    sink_.putDouble(v == 0.0 ? 0.0 : v);
    return *this;
}

KeyBuilder &
KeyBuilder::str(const std::string &s)
{
    sink_.putString(s);
    return *this;
}

KeyBuilder &
KeyBuilder::bytes(std::string_view raw)
{
    sink_.putU64(raw.size());
    for (char c : raw)
        sink_.putU8(static_cast<std::uint8_t>(c));
    return *this;
}

std::string
keyHex(std::uint64_t key)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[key & 0xf];
        key >>= 4;
    }
    return out;
}

std::optional<std::uint64_t>
parseKeyHex(std::string_view hex)
{
    if (hex.size() != 16)
        return std::nullopt;
    std::uint64_t key = 0;
    for (char c : hex) {
        key <<= 4;
        if (c >= '0' && c <= '9')
            key |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            key |= static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            key |= static_cast<std::uint64_t>(c - 'A' + 10);
        else
            return std::nullopt;
    }
    return key;
}

std::string
ArtifactId::fileName() const
{
    return kind + "-" + keyHex(key) + kArtifactExtension;
}

bool
validArtifactKind(std::string_view kind)
{
    if (kind.empty() || kind.size() > 64)
        return false;
    for (char c : kind) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' ||
                        c == '_';
        if (!ok)
            return false;
    }
    return true;
}

ArtifactStore::ArtifactStore(std::string dir)
{
    if (!dir.empty())
        backend_ =
            std::make_shared<LocalStoreBackend>(std::move(dir));
}

const std::string &
ArtifactStore::dir() const
{
    return enabled() ? backend_->dir() : kEmptyDir;
}

std::string
ArtifactStore::path(const ArtifactId &id) const
{
    return enabled() ? backend_->path(id) : std::string();
}

bool
ArtifactStore::contains(const ArtifactId &id) const
{
    return enabled() && backend_->contains(id);
}

std::optional<std::string>
ArtifactStore::load(const ArtifactId &id) const
{
    if (!enabled())
        return std::nullopt;
    return backend_->load(id);
}

bool
ArtifactStore::store(const ArtifactId &id,
                     std::string_view payload) const
{
    return enabled() && backend_->store(id, payload);
}

bool
ArtifactStore::remove(const ArtifactId &id) const
{
    return enabled() && backend_->remove(id);
}

std::vector<ArtifactInfo>
ArtifactStore::list() const
{
    if (!enabled())
        return {};
    return backend_->list();
}

std::vector<ArtifactId>
ArtifactStore::gc(const std::vector<ArtifactId> &live,
                  std::uint64_t graceSeconds) const
{
    if (!enabled())
        return {};
    return backend_->gc(live, graceSeconds);
}

} // namespace wct

#include "data/binary_io.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "util/logging.hh"

namespace wct
{

namespace
{

/** Sanity cap on parsed counts: no dataset has a billion columns. */
constexpr std::uint64_t kMaxReasonableColumns = 1u << 20;

/** Envelope field widths; see the header's file comment. */
constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kSizeAt = kMagicBytes + sizeof(std::uint32_t);
constexpr std::size_t kHeaderBytes = kSizeAt + sizeof(std::uint64_t);
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);

/** The envelope checksum: FNV-1a over `parts` as one stream. */
std::uint64_t
envelopeChecksum(std::initializer_list<std::string_view> parts)
{
    std::uint64_t hash = kFnv1aOffset;
    for (std::string_view part : parts)
        hash = fnv1a64(part, hash);
    return hash;
}

/** A little-endian field at `at` of an envelope in memory. */
template <typename T>
T
fieldAt(std::string_view bytes, std::size_t at)
{
    T v;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
}

void
putLe(std::string &bytes, const void *data, std::size_t n)
{
    // Little-endian hosts only (asserted below); memcpy keeps the
    // encoders free of per-byte shifting noise.
    static_assert(std::endian::native == std::endian::little,
                  "binary_io assumes a little-endian host");
    bytes.append(static_cast<const char *>(data), n);
}

std::uint64_t
payloadBytes(std::initializer_list<std::string_view> parts)
{
    std::uint64_t size = 0;
    for (std::string_view part : parts)
        size += part.size();
    return size;
}

/** Hand one envelope, field by field, to `put(data, bytes)`. */
template <typename Put>
void
emitEnvelope(Put put, std::string_view magic8, std::uint32_t version,
             std::initializer_list<std::string_view> parts)
{
    wct_assert(magic8.size() == kMagicBytes,
               "envelope magic must be 8 bytes");
    const std::uint64_t size = payloadBytes(parts);
    const std::uint64_t checksum = envelopeChecksum(parts);
    put(magic8.data(), kMagicBytes);
    put(&version, sizeof version);
    put(&size, sizeof size);
    for (std::string_view part : parts)
        put(part.data(), part.size());
    put(&checksum, sizeof checksum);
}

} // namespace

std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

void
ByteSink::putU8(std::uint8_t v)
{
    putLe(bytes_, &v, sizeof v);
}

void
ByteSink::putU32(std::uint32_t v)
{
    putLe(bytes_, &v, sizeof v);
}

void
ByteSink::putU64(std::uint64_t v)
{
    putLe(bytes_, &v, sizeof v);
}

void
ByteSink::putDouble(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(bits);
}

void
ByteSink::putString(std::string_view s)
{
    putU64(s.size());
    bytes_.append(s);
}

bool
ByteParser::take(void *out, std::size_t n)
{
    if (!ok_ || n > bytes_.size() - pos_) {
        ok_ = false;
        std::memset(out, 0, n);
        return false;
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
}

bool
ByteParser::getU8(std::uint8_t &v)
{
    return take(&v, sizeof v);
}

bool
ByteParser::getU32(std::uint32_t &v)
{
    return take(&v, sizeof v);
}

bool
ByteParser::getU64(std::uint64_t &v)
{
    return take(&v, sizeof v);
}

bool
ByteParser::getDouble(double &v)
{
    std::uint64_t bits = 0;
    if (!getU64(bits)) {
        v = 0.0;
        return false;
    }
    std::memcpy(&v, &bits, sizeof v);
    return true;
}

bool
ByteParser::getDoubles(std::span<double> out)
{
    // Little-endian host (asserted by putLe), so the payload's
    // doubles are the host's. An empty span may have no buffer, and
    // memcpy must not see a null pointer even for zero bytes.
    return out.empty() ? ok_ : take(out.data(), out.size_bytes());
}

bool
ByteParser::getString(std::string &s)
{
    std::uint64_t size = 0;
    s.clear();
    if (!getU64(size) || size > bytes_.size() - pos_) {
        ok_ = false;
        return false;
    }
    s.assign(bytes_.data() + pos_, size);
    pos_ += size;
    return true;
}

void
writeEnvelope(std::ostream &out, std::string_view magic8,
              std::uint32_t version,
              std::initializer_list<std::string_view> parts)
{
    emitEnvelope(
        [&out](const void *data, std::size_t n) {
            out.write(static_cast<const char *>(data),
                      static_cast<std::streamsize>(n));
        },
        magic8, version, parts);
}

std::string
sealEnvelope(std::string_view magic8, std::uint32_t version,
             std::initializer_list<std::string_view> parts)
{
    std::string frame;
    frame.reserve(kHeaderBytes + payloadBytes(parts) + kChecksumBytes);
    emitEnvelope([&frame](const void *data,
                          std::size_t n) { putLe(frame, data, n); },
                 magic8, version, parts);
    return frame;
}

EnvelopeScan
scanEnvelope(std::string_view bytes, std::string_view magic8,
             std::uint32_t version, std::uint64_t maxPayload)
{
    wct_assert(magic8.size() == kMagicBytes,
               "envelope magic must be 8 bytes");
    // The cap bounds frameBytes below, so it cannot wrap.
    wct_assert(maxPayload <= kMaxFilePayload,
               "envelope payload cap above kMaxFilePayload");
    constexpr EnvelopeScan kMalformed{EnvelopeScan::Malformed, {}, 0};
    const std::size_t magic_in = std::min(bytes.size(), kMagicBytes);
    if (bytes.substr(0, magic_in) != magic8.substr(0, magic_in))
        return kMalformed;
    if (bytes.size() < kSizeAt)
        return {};
    if (fieldAt<std::uint32_t>(bytes, kMagicBytes) != version)
        return kMalformed;
    if (bytes.size() < kHeaderBytes)
        return {};
    // A claimed size above the cap is refused before a single payload
    // byte is awaited or allocated.
    const std::uint64_t size = fieldAt<std::uint64_t>(bytes, kSizeAt);
    if (size > maxPayload)
        return kMalformed;
    const std::size_t frame = kHeaderBytes + size + kChecksumBytes;
    if (bytes.size() < frame)
        return {EnvelopeScan::Incomplete, {}, frame}; // never hash it
    const std::string_view payload = bytes.substr(kHeaderBytes, size);
    if (fieldAt<std::uint64_t>(bytes, kHeaderBytes + size) !=
        envelopeChecksum({payload}))
        return kMalformed;
    return {EnvelopeScan::Complete, payload, frame};
}

std::optional<std::uint64_t>
readEnvelopeHeader(std::istream &in, std::string_view magic8,
                   std::uint32_t version, std::uint64_t maxPayload)
{
    char header[kHeaderBytes];
    if (!in.read(header, kHeaderBytes))
        return std::nullopt;
    const EnvelopeScan scan =
        scanEnvelope(std::string_view(header, kHeaderBytes), magic8,
                     version, maxPayload);
    if (scan.state == EnvelopeScan::Malformed)
        return std::nullopt;
    return scan.frameBytes - kHeaderBytes - kChecksumBytes;
}

bool
readEnvelopeTrailer(std::istream &in,
                    std::initializer_list<std::string_view> parts)
{
    std::uint64_t checksum = 0;
    return in.read(reinterpret_cast<char *>(&checksum), sizeof checksum) &&
           checksum == envelopeChecksum(parts);
}

std::optional<std::string>
readEnvelope(std::istream &in, std::string_view magic8,
             std::uint32_t version, std::uint64_t maxPayload)
{
    const auto size = readEnvelopeHeader(in, magic8, version, maxPayload);
    if (!size)
        return std::nullopt;
    std::string payload(*size, '\0');
    if (!in.read(payload.data(), static_cast<std::streamsize>(*size)) ||
        !readEnvelopeTrailer(in, {payload}))
        return std::nullopt;
    return payload;
}

void
appendDataset(ByteSink &sink, const Dataset &data)
{
    sink.putU64(data.numColumns());
    for (const std::string &name : data.columnNames())
        sink.putString(name);
    sink.putU64(data.numRows());
    for (std::size_t r = 0; r < data.numRows(); ++r)
        for (double v : data.row(r))
            sink.putDouble(v);
}

std::optional<Dataset>
parseDataset(ByteParser &parser)
{
    std::uint64_t cols = 0;
    if (!parser.getU64(cols) || cols == 0 ||
        cols > kMaxReasonableColumns)
        return std::nullopt;
    std::vector<std::string> names(cols);
    for (auto &name : names)
        if (!parser.getString(name) || name.empty())
            return std::nullopt;
    // Dataset asserts distinct names: a payload that repeats one is
    // malformed input, not a reason to abort.
    std::vector<std::string_view> sorted(names.begin(), names.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        return std::nullopt;
    std::uint64_t rows = 0;
    if (!parser.getU64(rows))
        return std::nullopt;
    // Every row still has to be present as cols*8 payload bytes, so
    // a claimed count the remaining bytes cannot hold is rejected
    // here — before reserveRows turns it into a giant allocation.
    // (cols <= 2^20, so the divisor never overflows.)
    if (rows > parser.remaining() / (cols * sizeof(double)))
        return std::nullopt;
    std::vector<double> cells(rows * cols);
    if (!parser.getDoubles(cells))
        return std::nullopt;
    return Dataset(std::move(names), std::move(cells));
}

} // namespace wct

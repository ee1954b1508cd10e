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

void
putLe(std::string &bytes, const void *data, std::size_t n)
{
    // Little-endian hosts only (asserted below); memcpy keeps the
    // encoders free of per-byte shifting noise.
    static_assert(std::endian::native == std::endian::little,
                  "binary_io assumes a little-endian host");
    bytes.append(static_cast<const char *>(data), n);
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
writeEnvelopeHeader(std::ostream &out, std::string_view magic8,
                    std::uint32_t version, std::uint64_t size)
{
    wct_assert(magic8.size() == 8, "envelope magic must be 8 bytes");
    out.write(magic8.data(), 8);
    out.write(reinterpret_cast<const char *>(&version),
              sizeof version);
    out.write(reinterpret_cast<const char *>(&size), sizeof size);
}

std::optional<std::uint64_t>
readEnvelopeHeader(std::istream &in, std::string_view magic8,
                   std::uint32_t version, std::uint64_t maxPayload)
{
    wct_assert(magic8.size() == 8, "envelope magic must be 8 bytes");
    char magic[8];
    if (!in.read(magic, 8) ||
        std::string_view(magic, 8) != magic8)
        return std::nullopt;
    std::uint32_t file_version = 0;
    if (!in.read(reinterpret_cast<char *>(&file_version),
                 sizeof file_version) ||
        file_version != version)
        return std::nullopt;
    std::uint64_t size = 0;
    if (!in.read(reinterpret_cast<char *>(&size), sizeof size))
        return std::nullopt;
    // Refuse oversized claims before allocating (a corrupt or
    // hostile length field must not turn into a bad_alloc).
    if (size > maxPayload)
        return std::nullopt;
    return size;
}

void
writeEnvelope(std::ostream &out, std::string_view magic8,
              std::uint32_t version, std::string_view payload)
{
    writeEnvelopeHeader(out, magic8, version, payload.size());
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    const std::uint64_t checksum = fnv1a64(payload);
    out.write(reinterpret_cast<const char *>(&checksum),
              sizeof checksum);
}

std::optional<std::string>
readEnvelope(std::istream &in, std::string_view magic8,
             std::uint32_t version, std::uint64_t maxPayload)
{
    const auto size = readEnvelopeHeader(in, magic8, version, maxPayload);
    if (!size)
        return std::nullopt;
    std::string payload(*size, '\0');
    if (*size > 0 &&
        !in.read(payload.data(), static_cast<std::streamsize>(*size)))
        return std::nullopt;
    std::uint64_t checksum = 0;
    if (!in.read(reinterpret_cast<char *>(&checksum),
                 sizeof checksum) ||
        checksum != fnv1a64(payload))
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

void
writeDatasetBinary(std::ostream &out, const Dataset &data)
{
    ByteSink sink;
    appendDataset(sink, data);
    writeEnvelope(out, std::string_view(kDatasetMagic, 8),
                  kDatasetFormatVersion, sink.bytes());
}

std::optional<Dataset>
readDatasetBinary(std::istream &in)
{
    const auto payload = readEnvelope(
        in, std::string_view(kDatasetMagic, 8), kDatasetFormatVersion,
        kMaxFilePayload);
    if (!payload)
        return std::nullopt;
    ByteParser parser(*payload);
    auto data = parseDataset(parser);
    if (!data || !parser.atEnd())
        return std::nullopt;
    return data;
}

} // namespace wct

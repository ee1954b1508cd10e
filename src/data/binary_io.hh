/**
 * @file
 * Binary serialization primitives and the on-disk Dataset format.
 *
 * The collection cache stores datasets as checksummed little-endian
 * binary envelopes instead of CSV: doubles round-trip bit-exactly
 * (cache loads are byte-identical to the collection that produced
 * them), files are ~3x smaller, and a flipped bit is detected by the
 * FNV-1a checksum instead of silently parsing into garbage.
 *
 * Envelope layout (all integers little-endian):
 *
 *   magic     8 bytes, caller-chosen (e.g. "WCTDSET\0")
 *   version   u32, caller-chosen format version
 *   size      u64, payload byte count
 *   payload   size bytes
 *   checksum  u64, FNV-1a over the payload bytes
 *
 * Readers return std::nullopt on any mismatch — bad magic, unknown
 * version, truncation, checksum failure — so callers can fall back
 * (e.g. re-collect and overwrite a corrupt cache entry) instead of
 * dying inside the parser.
 */

#ifndef WCT_DATA_BINARY_IO_HH
#define WCT_DATA_BINARY_IO_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "data/dataset.hh"

namespace wct
{

/** FNV-1a 64-bit offset basis (the seed of an empty hash). */
constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/**
 * Claimed-size cap for trusted on-disk envelopes (datasets, cached
 * suites, store artifacts) — the kMaxFramePayload analogue of the
 * serve wire: a corrupt or hostile length field must fail the read,
 * never drive a giant allocation. Network-facing readers use their
 * own, tighter budget.
 */
constexpr std::uint64_t kMaxFilePayload = 1ull << 30; // 1 GiB

/** FNV-1a 64-bit hash of a byte range, chainable via `seed`. */
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = kFnv1aOffset);

/**
 * Append-only little-endian byte buffer: the writer half of the
 * payload format and the canonical encoder behind cache keys (bit
 * patterns of doubles are hashed, so keys never depend on decimal
 * formatting).
 */
class ByteSink
{
  public:
    void putU8(std::uint8_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putDouble(double v); ///< IEEE-754 bit pattern, little-endian
    void putString(std::string_view s); ///< u64 length + bytes

    const std::string &bytes() const { return bytes_; }
    std::uint64_t hash() const { return fnv1a64(bytes_); }

  private:
    std::string bytes_;
};

/**
 * Bounds-checked sequential reader over a byte buffer. Every getter
 * returns false (and latches !ok()) past the end; values read after
 * a failure are zero. Callers check ok() once at the end.
 */
class ByteParser
{
  public:
    explicit ByteParser(std::string_view bytes) : bytes_(bytes) {}

    bool getU8(std::uint8_t &v);
    bool getU32(std::uint32_t &v);
    bool getU64(std::uint64_t &v);
    bool getDouble(double &v);
    /** out.size() doubles in one copy (the putDouble layout). */
    bool getDoubles(std::span<double> out);
    bool getString(std::string &s);

    bool ok() const { return ok_; }
    bool atEnd() const { return ok_ && pos_ == bytes_.size(); }

    /** Bytes not yet consumed (0 once a getter has failed). Parsers
     * use this to reject claimed element counts the remaining bytes
     * cannot possibly hold *before* sizing any container. */
    std::size_t
    remaining() const
    {
        return ok_ ? bytes_.size() - pos_ : 0;
    }

  private:
    bool take(void *out, std::size_t n);

    std::string_view bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Write one checksummed envelope (see file comment for the layout). */
void writeEnvelope(std::ostream &out, std::string_view magic8,
                   std::uint32_t version, std::string_view payload);

/**
 * The header half of writeEnvelope and readEnvelope (magic, version
 * and payload size), for a caller that writes or reads a payload of
 * its own framing in pieces and checksums them as one stream through
 * fnv1a64's seed (the artifact store). The header reader rejects what
 * readEnvelope rejects before allocating: bad magic, another version,
 * truncation and a claimed size above `maxPayload`.
 */
void writeEnvelopeHeader(std::ostream &out, std::string_view magic8,
                         std::uint32_t version, std::uint64_t size);
std::optional<std::uint64_t>
readEnvelopeHeader(std::istream &in, std::string_view magic8,
                   std::uint32_t version, std::uint64_t maxPayload);

/**
 * Read and verify one envelope; nullopt on bad magic, version
 * mismatch, truncation, or checksum failure. A claimed payload size
 * above `maxPayload` is rejected before any allocation, so a corrupt
 * or hostile length field can never trigger a huge alloc. There is
 * deliberately no default: every caller owns a justified budget
 * (kMaxFilePayload for on-disk artifacts, kMaxFramePayload for
 * network frames) — see the fuzz harnesses, which drive this reader
 * with each per-caller cap.
 */
std::optional<std::string>
readEnvelope(std::istream &in, std::string_view magic8,
             std::uint32_t version, std::uint64_t maxPayload);

/** Append a dataset (schema + row-major cells) to a payload. */
void appendDataset(ByteSink &sink, const Dataset &data);

/** Parse a dataset appended by appendDataset; nullopt on malformed. */
std::optional<Dataset> parseDataset(ByteParser &parser);

/** Magic and version of standalone .wctdata dataset files. */
constexpr char kDatasetMagic[] = "WCTDSET"; ///< 7 chars + NUL = 8 bytes
constexpr std::uint32_t kDatasetFormatVersion = 1;

/** Serialize one dataset as a standalone checksummed stream. */
void writeDatasetBinary(std::ostream &out, const Dataset &data);

/** Read a standalone dataset stream; nullopt on any mismatch. */
std::optional<Dataset> readDatasetBinary(std::istream &in);

} // namespace wct

#endif // WCT_DATA_BINARY_IO_HH

/**
 * @file
 * Binary serialization primitives, the checksummed envelope and the
 * Dataset payload layout.
 *
 * Artifacts hold datasets as little-endian binary instead of CSV:
 * doubles round-trip bit-exactly (a cache load is byte-identical to
 * the collection that produced it), the bytes are ~3x smaller, and a
 * flipped bit is detected by the envelope's FNV-1a checksum instead
 * of silently parsing into garbage.
 *
 * The envelope wraps suite bytes (WCTSUIT), store artifacts
 * (WCTARTF), serving frames (WCTSERV) and store-wire frames
 * (WCTSTOR). Only this file reads or writes its fields or computes
 * its checksum. Layout, all integers little-endian:
 *
 *   offset  0  magic     8 bytes, caller-chosen (e.g. "WCTSUIT\0")
 *   offset  8  version   u32, caller-chosen format version
 *   offset 12  size      u64, payload byte count
 *   offset 20  payload   size bytes
 *   then       checksum  u64, FNV-1a over the payload bytes
 *
 * Every reader refuses, in this order and as soon as a field's bytes
 * are in: a magic byte that differs; another version (at 12 bytes);
 * a size above the caller's cap, at most kMaxFilePayload (at 20
 * bytes, before any payload byte is awaited or allocated); a
 * checksum mismatch (once the whole envelope is in, so an incomplete
 * one is never hashed). A refusal is nullopt or Malformed, so callers
 * can fall back (e.g. recompute a corrupt cache entry) instead of
 * dying inside a parser.
 *
 * writeEnvelope writes an envelope to a stream and sealEnvelope to a
 * string; the artifact store passes its (kind, key, length) prefix
 * and the payload as two parts, the store wire its fields and an
 * artifact. The socket reactor's reassembly and Server::handleFrame
 * check bytes in memory with scanEnvelope; readFrame and
 * readStoreFrame read a stream with readEnvelope. The artifact store
 * reads the payload straight into the string it returns between
 * readEnvelopeHeader and readEnvelopeTrailer, readEnvelope's two
 * halves.
 */

#ifndef WCT_DATA_BINARY_IO_HH
#define WCT_DATA_BINARY_IO_HH

#include <cstdint>
#include <initializer_list>
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

/**
 * Write one checksummed envelope whose payload is `parts` back to
 * back, without joining them in memory (`{payload}` for one part).
 */
void writeEnvelope(std::ostream &out, std::string_view magic8,
                   std::uint32_t version,
                   std::initializer_list<std::string_view> parts);

/** writeEnvelope's bytes as one string, allocated once at its final
 * size: how every wire frame is built. */
std::string sealEnvelope(std::string_view magic8, std::uint32_t version,
                         std::initializer_list<std::string_view> parts);

/** What scanEnvelope found at the front of a byte buffer. */
struct EnvelopeScan
{
    enum State
    {
        Incomplete, ///< every byte so far is valid; wait for more
        Malformed,  ///< refused; framing cannot resync after this
        Complete,   ///< one whole, verified envelope
    };

    State state = Incomplete;
    std::string_view payload; ///< Complete: a view into the bytes
    /** Header, payload and checksum bytes; 0 until the header is in. */
    std::size_t frameBytes = 0;
};

/**
 * Check the envelope at the front of `bytes` as far as they reach.
 * Bytes after a complete envelope are left to the caller (the next
 * frame of a stream).
 */
EnvelopeScan scanEnvelope(std::string_view bytes,
                          std::string_view magic8,
                          std::uint32_t version,
                          std::uint64_t maxPayload);

/** Read and check the header; the claimed payload size, or nullopt. */
std::optional<std::uint64_t>
readEnvelopeHeader(std::istream &in, std::string_view magic8,
                   std::uint32_t version, std::uint64_t maxPayload);

/** Read the checksum after a payload read as `parts`, in order;
 * false when it is missing or does not match them. */
bool readEnvelopeTrailer(std::istream &in,
                         std::initializer_list<std::string_view> parts);

/**
 * Read and verify one envelope; nullopt on any refusal. There is
 * deliberately no default cap: every caller owns a justified budget
 * (kMaxFilePayload for on-disk artifacts, kMaxFramePayload for
 * network frames), and the fuzz harnesses drive each one.
 */
std::optional<std::string>
readEnvelope(std::istream &in, std::string_view magic8,
             std::uint32_t version, std::uint64_t maxPayload);

/** Append a dataset (schema + row-major cells) to a payload. */
void appendDataset(ByteSink &sink, const Dataset &data);

/** Parse a dataset appended by appendDataset; nullopt on malformed. */
std::optional<Dataset> parseDataset(ByteParser &parser);

/** Version of the appendDataset layout inside shard and train
 * payloads; hashed into every collect-shard key. */
constexpr std::uint32_t kDatasetFormatVersion = 1;

} // namespace wct

#endif // WCT_DATA_BINARY_IO_HH

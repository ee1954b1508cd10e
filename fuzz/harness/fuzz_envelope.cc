/**
 * @file
 * Fuzz harness for the untrusted byte decoders of data/binary_io and
 * pipeline/stages: readEnvelope and scanEnvelope under every
 * per-caller payload cap, the dataset payload parser, and the four
 * stage decoders a plan runs on what the store hands back
 * (decodeShardSamples, decodeSuiteModel, decodeProfileTable,
 * decodeTransferReport).
 *
 * Invariants checked on top of "never crash":
 *  - scanEnvelope completes exactly when readEnvelope accepts, with
 *    the same payload and a frame of 28 + payload bytes;
 *  - a payload accepted under cap C never exceeds C bytes and
 *    survives a write-then-reread round trip;
 *  - an accepted value re-encodes to bytes that decode and re-encode
 *    identically (serializer/parser agreement);
 *  - an accepted profile table renders and builds its
 *    SimilarityMatrix;
 *  - an accepted model's train and test columns are its tree's
 *    schema;
 *  - an accepted transfer report renders.
 *
 * The parsers and stage decoders are driven on the raw input:
 * mutated bytes almost never carry a valid FNV-1a checksum, and the
 * checksum must not shield the decoders behind it from hostile bytes
 * (a corrupt-but-checksummed artifact is exactly what a buggy writer
 * or a lying store daemon delivers; see data/remote_store.hh).
 */

#include "fuzz/driver/driver.hh"

#include <sstream>
#include <string>
#include <string_view>

#include "core/similarity.hh"
#include "data/binary_io.hh"
#include "pipeline/stages.hh"
#include "util/logging.hh"

namespace
{

using namespace wct;
using namespace wct::pipeline;

/** The harness's envelope magic: the reader takes any 8 bytes. */
constexpr std::string_view kMagic("WCTFUZZ\0", 8);
constexpr std::uint32_t kVersion = 1;

void
checkEnvelope(std::string_view bytes, std::uint64_t cap)
{
    std::istringstream in{std::string(bytes)};
    const auto payload = readEnvelope(in, kMagic, kVersion, cap);
    // The in-memory scanner and the stream reader agree on every
    // input: complete exactly when the reader accepts, with the same
    // payload, and the frame is its 28 envelope bytes plus the payload.
    const EnvelopeScan scan = scanEnvelope(bytes, kMagic, kVersion, cap);
    WCT_FUZZ_ASSERT((scan.state == EnvelopeScan::Complete) ==
                    payload.has_value());
    if (!payload)
        return;
    WCT_FUZZ_ASSERT(scan.payload == *payload);
    WCT_FUZZ_ASSERT(scan.frameBytes == 28 + payload->size());
    WCT_FUZZ_ASSERT(payload->size() <= cap);
    // Round trip: re-sealing the payload must re-read identically,
    // and the in-memory sealer must write the stream writer's bytes.
    std::ostringstream sealed;
    writeEnvelope(sealed, kMagic, kVersion, {*payload});
    WCT_FUZZ_ASSERT(sealEnvelope(kMagic, kVersion, {*payload}) ==
                    sealed.str());
    std::istringstream again(sealed.str());
    const auto reread = readEnvelope(again, kMagic, kVersion, cap);
    WCT_FUZZ_ASSERT(reread.has_value() && *reread == *payload);
}

void
checkDataset(std::string_view bytes)
{
    ByteParser parser(bytes);
    const auto data = parseDataset(parser);
    if (!data)
        return;
    ByteSink sink;
    appendDataset(sink, *data);
    ByteParser again(sink.bytes());
    const auto reread = parseDataset(again);
    WCT_FUZZ_ASSERT(reread.has_value() && again.atEnd());
}

/** An accepted value's encoding decodes and re-encodes to itself. */
template <typename Value, typename Encode, typename Decode>
void
checkReencodes(const Value &value, Encode encode, Decode decode)
{
    const std::string encoded = encode(value);
    const auto again = decode(encoded);
    WCT_FUZZ_ASSERT(again.has_value());
    WCT_FUZZ_ASSERT(encode(*again) == encoded);
}

void
checkStageDecoders(std::string_view bytes)
{
    if (const auto samples = decodeShardSamples(bytes))
        checkReencodes(*samples, encodeShardSamples, decodeShardSamples);

    if (const auto model = decodeSuiteModel(bytes)) {
        WCT_FUZZ_ASSERT(model->train.columnNames() ==
                        model->tree.schema());
        WCT_FUZZ_ASSERT(model->test.columnNames() ==
                        model->tree.schema());
        checkReencodes(*model, encodeSuiteModel,
                       [](std::string_view payload) {
                           return decodeSuiteModel(payload);
                       });
    }

    if (const auto table = decodeProfileTable(bytes)) {
        (void)table->render();
        (void)SimilarityMatrix(*table).render();
        checkReencodes(*table, encodeProfileTable, decodeProfileTable);
    }

    if (const auto report = decodeTransferReport(bytes)) {
        (void)report->render();
        checkReencodes(*report, encodeTransferReport,
                       decodeTransferReport);
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    [[maybe_unused]] static const bool quiet = setLogQuiet(true);
    const std::string_view bytes(
        reinterpret_cast<const char *>(data), size);
    // Every cap a real caller passes, plus degenerate tiny ones.
    for (const std::uint64_t cap :
         {std::uint64_t(0), std::uint64_t(16), std::uint64_t(4096),
          kMaxFilePayload})
        checkEnvelope(bytes, cap);
    checkDataset(bytes);
    checkStageDecoders(bytes);
    return 0;
}

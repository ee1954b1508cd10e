/**
 * @file
 * Fuzz harness for ArtifactStore::load: the input bytes are written
 * verbatim as a .wctart file under the store's address for a fixed
 * (kind, key), then loaded. This drives the whole untrusted-file
 * surface — envelope checks, the claimed-size cap, the embedded
 * (kind, key) self-identification, and the payload extraction.
 *
 * Invariants on top of "never crash":
 *  - a payload that loads survives store() → load() unchanged;
 *  - a loaded file always carries the id it was addressed by (a
 *    mutated kind/key prefix must be rejected, not served).
 */

#include "fuzz/driver/driver.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "data/artifact_store.hh"
#include "util/logging.hh"

namespace
{

using namespace wct;

/** Fixed address every input is loaded under. The corpus generator
 * uses the same id so seed inputs exercise the accept path. */
const ArtifactId &
fuzzId()
{
    static const ArtifactId id{"fuzz", 0xf00dfeedd00dull};
    return id;
}

/** A store in a scratch directory, removed when the harness exits. */
struct ScratchStore
{
    std::string dir;
    ArtifactStore store;

    ScratchStore()
        : dir(std::filesystem::temp_directory_path().string() +
              "/wct_fuzz_store." + std::to_string(::getpid())),
          store(dir)
    {
        std::filesystem::create_directories(dir);
    }

    ScratchStore(const ScratchStore &) = delete;
    ScratchStore &operator=(const ScratchStore &) = delete;

    ~ScratchStore()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

ArtifactStore &
scratchStore()
{
    static ScratchStore scratch;
    return scratch.store;
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    [[maybe_unused]] static const bool quiet = setLogQuiet(true);
    ArtifactStore &store = scratchStore();

    {
        std::ofstream out(store.path(fuzzId()),
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(data),
                  static_cast<std::streamsize>(size));
    }
    const auto payload = store.load(fuzzId());
    if (payload) {
        // Accepted payloads must round-trip through the writer.
        WCT_FUZZ_ASSERT(store.store(fuzzId(), *payload));
        const auto reread = store.load(fuzzId());
        WCT_FUZZ_ASSERT(reread.has_value() && *reread == *payload);
    }
    return 0;
}

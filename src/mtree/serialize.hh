/**
 * @file
 * Text serialization of trained model trees, so a model built from
 * one collection run can be stored, versioned, and applied to new
 * data later (or shipped to another machine) without retraining.
 *
 * The format is line-oriented and human-inspectable:
 *
 *   wct-model-tree v1
 *   target CPI
 *   schema <n> <name>...
 *   range <min> <max> <globalSd> <clamp>
 *   node split <attr> <value>        # children follow: left, right
 *   node leaf <count> <mean> <intercept> <k> (<attr> <coef>)...
 *   end
 */

#ifndef WCT_MTREE_SERIALIZE_HH
#define WCT_MTREE_SERIALIZE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "mtree/model_tree.hh"

namespace wct
{

/**
 * First line of the format, doubling as its version marker (bump the
 * trailing number on incompatible changes). `wct version` reports it.
 */
constexpr char kModelTreeMagicLine[] = "wct-model-tree v1";

/**
 * Cap on the file size tryReadModelTreeFile will slurp. A real tree
 * is a few KB of text; anything near this bound is not a model file,
 * and rejecting it up front keeps a mislabelled giant file from being
 * read into memory just to fail the parse.
 */
constexpr std::uint64_t kMaxModelTreeFileBytes = 1ull << 28; // 256 MiB

/**
 * Content key of a serialized tree: the FNV-1a hash of the exact text
 * bytes. This is the identity serving and the artifact store use for
 * models — two trees share a key iff they serialize identically, i.e.
 * they compute the same function. (keyHex of data/artifact_store.hh
 * renders it; modelTreeContentHex composes the two.)
 */
std::uint64_t modelTreeContentKey(std::string_view text);

/** 16-hex-digit rendering of modelTreeContentKey. */
std::string modelTreeContentHex(std::string_view text);

/** Write a trained tree. */
void writeModelTree(const ModelTree &tree, std::ostream &out);

/** Write a trained tree to a file; fatal on I/O failure. */
void writeModelTreeFile(const ModelTree &tree,
                        const std::string &path);

/**
 * Read a tree previously written by writeModelTree. Malformed input
 * is a fatal error (user input). The stream readers here read the
 * whole stream and parse it with ModelTree::tryLoad; bytes after the
 * `end` line are ignored.
 */
ModelTree readModelTree(std::istream &in);

/** Read a tree from a file; fatal on I/O failure. */
ModelTree readModelTreeFile(const std::string &path);

/**
 * Non-fatal readers for long-running callers (the serving model
 * registry must reject a corrupt upload without dying): nullopt on
 * malformed input, with a one-line reason in `err` when non-null.
 * The fatal readers above delegate to these.
 */
std::optional<ModelTree> tryReadModelTree(std::istream &in,
                                          std::string *err = nullptr);

/** File variant of tryReadModelTree (also catches open failures). */
std::optional<ModelTree>
tryReadModelTreeFile(const std::string &path,
                     std::string *err = nullptr);

} // namespace wct

#endif // WCT_MTREE_SERIALIZE_HH

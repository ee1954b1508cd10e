#include "mtree/serialize.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <iterator>
#include <ostream>
#include <type_traits>

#include "data/artifact_store.hh"
#include "util/logging.hh"

namespace wct
{

namespace
{

/**
 * Nesting bound for the recursive reader. Real trees are capped by
 * ModelTreeConfig::maxDepth (default 32); the parse bound only has to
 * keep a hostile file from overflowing the stack.
 */
constexpr std::size_t kMaxParseDepth = 512;

/** Set *err (when non-null) and return false; the parse fail path. */
bool
parseFail(std::string *err, std::string message)
{
    if (err != nullptr)
        *err = std::move(message);
    return false;
}

/** The characters isspace() accepts in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
        c == '\f' || c == '\r';
}

/**
 * One whole token as a number, through std::from_chars. Three
 * spellings differ from from_chars so that texts earlier versions
 * read (with iostreams) keep their outcome: a leading '+' is taken,
 * inf and nan are refused, and a value that underflows reads as zero
 * or the nearest denormal. A value that overflows (1e400), a '-' in
 * an unsigned field and anything glued to the number are refused;
 * tests/mtree/serialize_test.cc pins each spelling.
 */
template <typename T>
bool
parseNumber(std::string_view token, T &out)
{
    if (!token.empty() && token.front() == '+') {
        token.remove_prefix(1);
        if (!token.empty() && token.front() == '-')
            return false;
    }
    if constexpr (std::is_floating_point_v<T>) {
        const std::size_t lead =
            !token.empty() && token.front() == '-' ? 1 : 0;
        if (lead == token.size() ||
            !(token[lead] == '.' ||
              (token[lead] >= '0' && token[lead] <= '9')))
            return false;
    }
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    if constexpr (std::is_floating_point_v<T>) {
        // from_chars reports underflow as out of range (some library
        // versions a denormal result too) and leaves `out` alone;
        // strtod rounds such a token, and overflows to inf.
        if (ec == std::errc::result_out_of_range && ptr == end) {
            const std::string copy(token);
            const T value =
                static_cast<T>(std::strtod(copy.c_str(), nullptr));
            if (std::isinf(value))
                return false;
            out = value;
            return true;
        }
    }
    return ec == std::errc() && ptr == end;
}

/** The whitespace-separated tokens of a tree text, left to right. */
class Tokens
{
  public:
    explicit Tokens(std::string_view text) : rest_(text) {}

    /** The next token; empty once the text is used up. */
    std::string_view
    next()
    {
        std::size_t begin = 0;
        while (begin < rest_.size() && isSpace(rest_[begin]))
            ++begin;
        std::size_t end = begin;
        while (end < rest_.size() && !isSpace(rest_[end]))
            ++end;
        const std::string_view token = rest_.substr(begin, end - begin);
        rest_.remove_prefix(end);
        return token;
    }

    bool
    word(std::string &out)
    {
        out = next();
        return !out.empty();
    }

    template <typename T>
    bool
    number(T &out)
    {
        return parseNumber(next(), out);
    }

  private:
    std::string_view rest_;
};

/** Everything left in a stream. */
std::string
readAll(std::istream &in)
{
    return std::string(std::istreambuf_iterator<char>(in), {});
}

} // namespace

void
ModelTree::save(std::ostream &out) const
{
    wct_assert(root_ != nullptr, "saving an untrained tree");
    out.precision(17);
    out << kModelTreeMagicLine << "\n";
    out << "target " << target_ << "\n";
    out << "schema " << schema_.size();
    for (const std::string &name : schema_)
        out << " " << name;
    out << "\n";
    out << "range " << targetMin_ << " " << targetMax_ << " "
        << globalSd_ << " " << (config_.clampPredictions ? 1 : 0)
        << "\n";

    // Pre-order node dump.
    std::vector<const Node *> stack = {root_.get()};
    while (!stack.empty()) {
        const Node *node = stack.back();
        stack.pop_back();
        if (!node->isLeaf) {
            out << "node split " << node->splitAttr << " "
                << node->splitValue << " " << node->count << " "
                << node->meanTarget << "\n";
            // Left child first in pre-order.
            stack.push_back(node->right.get());
            stack.push_back(node->left.get());
            continue;
        }
        out << "node leaf " << node->count << " " << node->meanTarget
            << " " << node->model.intercept << " "
            << node->model.attributes.size();
        for (std::size_t i = 0; i < node->model.attributes.size();
             ++i) {
            out << " " << node->model.attributes[i] << " "
                << node->model.coefficients[i];
        }
        out << "\n";
    }
    out << "end\n";
}

std::optional<ModelTree>
ModelTree::tryLoad(std::string_view text, std::string *err)
{
    const std::size_t eol = text.find('\n');
    if (text.substr(0, eol) != kModelTreeMagicLine) {
        parseFail(err, "not a wct model tree (bad magic line)");
        return std::nullopt;
    }
    Tokens in(eol == std::string_view::npos ? std::string_view()
                                            : text.substr(eol + 1));

    ModelTree tree;
    if (in.next() != "target" || !in.word(tree.target_)) {
        parseFail(err, "model tree: missing target line");
        return std::nullopt;
    }

    std::size_t schema_size = 0;
    if (in.next() != "schema" || !in.number(schema_size)) {
        parseFail(err, "model tree: missing schema line");
        return std::nullopt;
    }
    // A hostile size must not turn into a huge allocation: each name
    // needs at least two input bytes ("x "), so cap by a generous
    // constant instead of trusting the count.
    if (schema_size == 0 || schema_size > (1u << 20)) {
        parseFail(err, "model tree: implausible schema size");
        return std::nullopt;
    }
    tree.schema_.resize(schema_size);
    for (std::string &name : tree.schema_)
        if (!in.word(name)) {
            parseFail(err, "model tree: truncated schema");
            return std::nullopt;
        }
    bool found_target = false;
    for (std::size_t c = 0; c < tree.schema_.size(); ++c) {
        if (tree.schema_[c] == tree.target_) {
            tree.targetColumn_ = c;
            found_target = true;
        }
    }
    if (!found_target) {
        parseFail(err, "model tree: target '" + tree.target_ +
                           "' not in schema");
        return std::nullopt;
    }

    int clamp = 1;
    if (in.next() != "range" || !in.number(tree.targetMin_) ||
        !in.number(tree.targetMax_) || !in.number(tree.globalSd_) ||
        !in.number(clamp)) {
        parseFail(err, "model tree: missing range line");
        return std::nullopt;
    }
    // predict() clamps to [min - sd, max + sd], and std::clamp needs
    // its bounds in order; a saved tree always has them so.
    if (!(tree.targetMin_ <= tree.targetMax_) ||
        !(tree.globalSd_ >= 0.0)) {
        parseFail(err, "model tree: range minimum above maximum or "
                       "negative sd");
        return std::nullopt;
    }
    tree.config_.clampPredictions = clamp != 0;

    // Recursive pre-order reader (needs Node, so it lives here). A
    // null return means a malformed record; the reason is in *err.
    const std::size_t num_columns = tree.schema_.size();
    const std::function<std::unique_ptr<Node>(std::size_t)> read_node =
        [&](std::size_t depth) -> std::unique_ptr<Node> {
        if (depth > kMaxParseDepth) {
            parseFail(err, "model tree: nesting too deep");
            return nullptr;
        }
        const std::string_view keyword = in.next();
        const std::string_view kind = in.next();
        if (keyword != "node" || kind.empty()) {
            parseFail(err, "model tree: expected a node record");
            return nullptr;
        }

        auto node = std::make_unique<Node>();
        if (kind == "split") {
            node->isLeaf = false;
            if (!in.number(node->splitAttr) ||
                !in.number(node->splitValue) || !in.number(node->count) ||
                !in.number(node->meanTarget)) {
                parseFail(err, "model tree: malformed split node");
                return nullptr;
            }
            if (node->splitAttr >= num_columns) {
                parseFail(err,
                          "model tree: split attribute " +
                              std::to_string(node->splitAttr) +
                              " outside schema");
                return nullptr;
            }
            node->left = read_node(depth + 1);
            if (node->left == nullptr)
                return nullptr;
            node->right = read_node(depth + 1);
            if (node->right == nullptr)
                return nullptr;
            return node;
        }
        if (kind != "leaf") {
            parseFail(err, "model tree: unknown node kind '" +
                               std::string(kind) + "'");
            return nullptr;
        }

        std::size_t terms = 0;
        if (!in.number(node->count) || !in.number(node->meanTarget) ||
            !in.number(node->model.intercept) || !in.number(terms)) {
            parseFail(err, "model tree: malformed leaf node");
            return nullptr;
        }
        if (terms > num_columns) {
            parseFail(err, "model tree: leaf has more terms than "
                           "schema columns");
            return nullptr;
        }
        node->model.attributes.resize(terms);
        node->model.coefficients.resize(terms);
        for (std::size_t i = 0; i < terms; ++i) {
            if (!in.number(node->model.attributes[i]) ||
                !in.number(node->model.coefficients[i])) {
                parseFail(err, "model tree: truncated leaf model");
                return nullptr;
            }
            if (node->model.attributes[i] >= num_columns) {
                parseFail(err, "model tree: leaf attribute outside "
                               "schema");
                return nullptr;
            }
        }
        return node;
    };
    tree.root_ = read_node(0);
    if (tree.root_ == nullptr)
        return std::nullopt;

    // Bytes after the end marker are not read.
    if (in.next() != "end") {
        parseFail(err, "model tree: missing end marker");
        return std::nullopt;
    }

    // finalize() also lowers the parsed tree into its compiled form,
    // so every load path — files, the serving registry's hot reload,
    // loadFromStore — rebuilds the flattened evaluator with the swap.
    tree.finalize();
    return tree;
}

ModelTree
ModelTree::load(std::istream &in)
{
    std::string err;
    auto tree = tryLoad(readAll(in), &err);
    if (!tree)
        wct_fatal(err);
    return std::move(*tree);
}

void
writeModelTree(const ModelTree &tree, std::ostream &out)
{
    tree.save(out);
}

void
writeModelTreeFile(const ModelTree &tree, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        wct_fatal("cannot open '", path, "' for writing");
    tree.save(out);
    out.flush();
    if (!out)
        wct_fatal("write error on '", path, "'");
}

ModelTree
readModelTree(std::istream &in)
{
    return ModelTree::load(in);
}

ModelTree
readModelTreeFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        wct_fatal("cannot open '", path, "' for reading");
    return ModelTree::load(in);
}

std::optional<ModelTree>
tryReadModelTree(std::istream &in, std::string *err)
{
    return ModelTree::tryLoad(readAll(in), err);
}

std::optional<ModelTree>
tryReadModelTreeFile(const std::string &path, std::string *err)
{
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    if (!ec && bytes > kMaxModelTreeFileBytes) {
        parseFail(err, "'" + path + "' is too large to be a model "
                       "tree file");
        return std::nullopt;
    }
    std::ifstream in(path);
    if (!in) {
        parseFail(err, "cannot open '" + path + "' for reading");
        return std::nullopt;
    }
    return ModelTree::tryLoad(readAll(in), err);
}

std::uint64_t
modelTreeContentKey(std::string_view text)
{
    return fnv1a64(text);
}

std::string
modelTreeContentHex(std::string_view text)
{
    return keyHex(modelTreeContentKey(text));
}

} // namespace wct

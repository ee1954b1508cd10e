#include "util/string_utils.hh"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace wct
{

std::vector<std::string>
split(const std::string &text, char delim)
{
    std::vector<std::string> pieces;
    std::string current;
    for (char c : text) {
        if (c == delim) {
            pieces.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    pieces.push_back(current);
    return pieces;
}

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::string
join(const std::vector<std::string> &pieces, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (i > 0)
            out += sep;
        out += pieces[i];
    }
    return out;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
        text.compare(0, prefix.size(), prefix) == 0;
}

std::string
formatDouble(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
formatCompact(double value)
{
    const double mag = std::fabs(value);
    char buf[64];
    if (mag != 0.0 && mag < 0.001) {
        std::snprintf(buf, sizeof(buf), "%.2e", value);
    } else if (mag >= 1000.0) {
        std::snprintf(buf, sizeof(buf), "%.1f", value);
    } else {
        std::snprintf(buf, sizeof(buf), "%.4f", value);
    }
    return buf;
}

} // namespace wct

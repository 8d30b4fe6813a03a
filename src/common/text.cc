#include "common/text.h"

#include <cstdarg>
#include <cstdio>

namespace mithril {

std::vector<std::string_view>
splitTokens(std::string_view line)
{
    std::vector<std::string_view> out;
    forEachToken(line, [&](std::string_view tok, uint32_t) {
        out.push_back(tok);
        return true;
    });
    return out;
}

std::vector<std::string_view>
splitLines(std::string_view text)
{
    std::vector<std::string_view> out;
    forEachLine(text, [&](std::string_view line) { out.push_back(line); });
    return out;
}

std::string
humanBytes(double bytes)
{
    const char *units[] = {"B", "KB", "MB", "GB", "TB"};
    int u = 0;
    while (bytes >= 1000.0 && u < 4) {
        bytes /= 1000.0;
        ++u;
    }
    return strprintf(u == 0 ? "%.0f %s" : "%.2f %s", bytes, units[u]);
}

std::string
humanBandwidth(double bytes_per_second)
{
    return humanBytes(bytes_per_second) + "/s";
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);

    std::string out;
    if (len > 0) {
        out.resize(static_cast<size_t>(len));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    }
    va_end(args2);
    return out;
}

} // namespace mithril

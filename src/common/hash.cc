#include "common/hash.h"

#include <cstring>

#include "common/bits.h"
#include "common/status.h"

namespace mithril {

namespace {

/** Loads up to 8 little-endian bytes without reading past the buffer. */
uint64_t
loadTail(const uint8_t *p, size_t len)
{
    uint64_t v = 0;
    for (size_t i = 0; i < len; ++i) {
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
    return v;
}

} // namespace

uint64_t
hash64(const void *data, size_t len, uint64_t seed)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint64_t h = mix64(seed ^ (0x51afb3c1903ce4d7ull + len));

    while (len >= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        h = mix64(h ^ w) * 0x9ddfea08eb382d69ull;
        p += 8;
        len -= 8;
    }
    if (len > 0) {
        h = mix64(h ^ loadTail(p, len)) * 0xc6a4a7935bd1e995ull;
    }
    return mix64(h);
}

namespace {

/**
 * Slicing-by-8 tables for the reflected CRC-32. entry[0] is the
 * byte-at-a-time table; entry[k][b] is entry[k-1][b] advanced through
 * one more zero byte, so the eight lookups of one 8-byte stride XOR
 * together into the CRC after all eight bytes.
 */
struct Crc32Tables {
    uint32_t entry[8][256];

    constexpr Crc32Tables() : entry()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit) {
                c = (c >> 1) ^ ((c & 1u) ? 0xedb88320u : 0u);
            }
            entry[0][i] = c;
        }
        for (int k = 1; k < 8; ++k) {
            for (uint32_t i = 0; i < 256; ++i) {
                uint32_t prev = entry[k - 1][i];
                entry[k][i] = (prev >> 8) ^ entry[0][prev & 0xffu];
            }
        }
    }
};

constexpr Crc32Tables kCrc32Tables;

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const auto &t = kCrc32Tables.entry;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = ~seed;
    for (; len >= 8; p += 8, len -= 8) {
        uint32_t lo = getLe<uint32_t>(p) ^ c;
        uint32_t hi = getLe<uint32_t>(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len) {
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    }
    return ~c;
}

HashPair::HashPair(uint32_t rows, uint64_t seed0, uint64_t seed1)
    : rows_(rows), mask_(rows - 1), seed0_(seed0), seed1_(seed1)
{
    MITHRIL_ASSERT(rows >= 2 && (rows & (rows - 1)) == 0);
}

} // namespace mithril

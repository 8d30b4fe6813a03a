/**
 * @file
 * Hash functions used across MithriLog.
 *
 * The hardware token filter and the inverted index both require *pairs* of
 * independent hash functions (cuckoo hashing, two-way index balancing).
 * All functions here are implemented from scratch so the repository has no
 * external dependencies; hash64() follows the finalizer-heavy structure of
 * modern non-cryptographic hashes (splitmix/xx-style mixing) and passes
 * basic avalanche sanity tests (see tests/common/hash_test.cc).
 */
#ifndef MITHRIL_COMMON_HASH_H
#define MITHRIL_COMMON_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mithril {

/** Mixes a 64-bit value through a splitmix64 finalizer (bijective). */
constexpr uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Hashes an arbitrary byte string with a seed.
 *
 * Word-at-a-time multiply-xor construction with a splitmix finalizer.
 * Distinct seeds yield statistically independent functions, which is what
 * cuckoo hashing and the two-way index rely on.
 */
uint64_t hash64(const void *data, size_t len, uint64_t seed = 0);

/** Convenience overload for string views. */
inline uint64_t
hash64(std::string_view s, uint64_t seed = 0)
{
    return hash64(s.data(), s.size(), seed);
}

/**
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
 *
 * Used as the integrity check on persisted page frames (LZAH pages, index
 * nodes, codec frames): unlike hash64 it has guaranteed detection of all
 * single- and double-bit errors and all burst errors up to 32 bits, which
 * is the fault model the storage layer injects. Pass the previous return
 * value as @p seed to continue a CRC across multiple ranges. Computed
 * slicing-by-8 (eight table lookups per 8-byte stride); every value
 * equals the bytewise definition.
 */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/**
 * The pair of hash functions a hardware cuckoo filter instantiates.
 *
 * Both functions map a token to a table row in [0, rows). The hardware
 * fixes the seeds at synthesis time; software reproduces the same values
 * so compiled query tables are portable between the query compiler and
 * the emulated filter.
 */
class HashPair
{
  public:
    /** @param rows table size; must be a power of two. */
    explicit HashPair(uint32_t rows,
                      uint64_t seed0 = 0x6d697468726c6f67ull,
                      uint64_t seed1 = 0x6c6f67746f6b656eull);

    uint32_t rows() const { return rows_; }

    /** First hash function: row index for @p token. */
    uint32_t
    h0(std::string_view token) const
    {
        return static_cast<uint32_t>(hash64(token, seed0_)) & mask_;
    }

    /** Second hash function: row index for @p token. */
    uint32_t
    h1(std::string_view token) const
    {
        return static_cast<uint32_t>(hash64(token, seed1_)) & mask_;
    }

  private:
    uint32_t rows_;
    uint32_t mask_;
    uint64_t seed0_;
    uint64_t seed1_;
};

} // namespace mithril

#endif // MITHRIL_COMMON_HASH_H

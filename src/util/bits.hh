/**
 * @file
 * Bit manipulation helpers shared by the ISA, IFT and uarch layers.
 */

#ifndef DEJAVUZZ_UTIL_BITS_HH
#define DEJAVUZZ_UTIL_BITS_HH

#include <bit>
#include <cstdint>

namespace dejavuzz {

/** A mask with the low @p n bits set (n in [0, 64]). */
constexpr uint64_t
maskLow(unsigned n)
{
    return n >= 64 ? ~0ULL : ((1ULL << n) - 1);
}

/** Extract bits [hi:lo] of @p value (inclusive, hi >= lo). */
constexpr uint64_t
bitsOf(uint64_t value, unsigned hi, unsigned lo)
{
    return (value >> lo) & maskLow(hi - lo + 1);
}

/** Sign-extend the low @p width bits of @p value to 64 bits. */
constexpr int64_t
signExtend(uint64_t value, unsigned width)
{
    if (width == 0 || width >= 64)
        return static_cast<int64_t>(value);
    uint64_t sign = 1ULL << (width - 1);
    return static_cast<int64_t>(((value & maskLow(width)) ^ sign) - sign);
}

/**
 * Number of set bits, as an inline branch-free SWAR sum. Without a
 * -mpopcnt target, std::popcount compiles to an out-of-line libgcc
 * call (__popcountdi2) on every taint word, most of them zero.
 */
constexpr int
popcount64(uint64_t value)
{
    value -= (value >> 1) & 0x5555555555555555ULL;
    value = (value & 0x3333333333333333ULL) +
            ((value >> 2) & 0x3333333333333333ULL);
    value = (value + (value >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<int>((value * 0x0101010101010101ULL) >> 56);
}

/** Number of trailing zero bits (64 for zero input). */
constexpr int
ctz64(uint64_t value)
{
    return std::countr_zero(value);
}

/** True iff @p value is a power of two (zero excluded). */
constexpr bool
isPow2(uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
log2Exact(uint64_t value)
{
    unsigned n = 0;
    while (value > 1) {
        value >>= 1;
        ++n;
    }
    return n;
}

/**
 * Carry-aware taint smear for additive cells: every bit at or above the
 * lowest tainted input bit may be affected through carries.
 */
constexpr uint64_t
smearLeft(uint64_t taint)
{
    taint |= taint << 1;
    taint |= taint << 2;
    taint |= taint << 4;
    taint |= taint << 8;
    taint |= taint << 16;
    taint |= taint << 32;
    return taint;
}

/** FNV-1a 64-bit hash step, used for microarchitectural state hashes. */
constexpr uint64_t
fnv1a(uint64_t hash, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (i * 8)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

} // namespace dejavuzz

#endif // DEJAVUZZ_UTIL_BITS_HH

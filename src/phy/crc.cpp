#include "phy/crc.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace lte::phy {

namespace {

constexpr std::uint32_t kCrcMask = 0xFFFFFFu;

/** One bit-serial step of the TS 36.212 division (the reference form). */
constexpr std::uint32_t
crc_step(std::uint32_t reg, std::uint32_t bit, std::uint32_t poly)
{
    const std::uint32_t msb = (reg >> 23) & 1u;
    reg = (reg << 1) & kCrcMask;
    return reg ^ ((0u - ((msb ^ bit) & 1u)) & poly);
}

using CrcTable = std::array<std::uint32_t, 256>;

/** t[b]: the register after shifting byte b (MSB first) through an
 *  otherwise-zero register, so one lookup advances eight bits. */
constexpr CrcTable
make_table(std::uint32_t poly)
{
    CrcTable t{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t reg = b << 16;
        for (int k = 0; k < 8; ++k)
            reg = crc_step(reg, 0, poly);
        t[b] = reg;
    }
    return t;
}

constexpr CrcTable kTable24A = make_table(kCrc24APoly);
constexpr CrcTable kTable24B = make_table(kCrc24BPoly);

/** Pack eight one-bit bytes MSB first: byte k of the little-endian
 *  word lands on bit 63 - k of the product, without carries while
 *  every byte is 0 or 1. */
std::uint32_t
pack_byte(std::uint64_t w)
{
    if constexpr (std::endian::native == std::endian::little) {
        return static_cast<std::uint32_t>((w * 0x8040201008040201ULL) >>
                                          56);
    } else {
        std::uint32_t byte = 0;
        for (int k = 0; k < 8; ++k)
            byte = (byte << 1) | ((w >> (56 - 8 * k)) & 1u);
        return byte;
    }
}

} // namespace

std::uint32_t
crc24(BitView bits, std::uint32_t poly)
{
    poly &= kCrcMask;
    const CrcTable *table = poly == kCrc24APoly   ? &kTable24A
                            : poly == kCrc24BPoly ? &kTable24B
                                                  : nullptr;
    // OR of every input byte: one 0/1 check per call instead of one
    // per bit (any byte above 1 leaves a bit outside 0x01 set).
    std::uint64_t seen = 0;
    std::uint32_t reg = 0;
    std::size_t i = 0;
    if (table != nullptr) {
        for (; i + 8 <= bits.size(); i += 8) {
            std::uint64_t w;
            std::memcpy(&w, bits.data() + i, sizeof w);
            seen |= w;
            reg = ((reg << 8) ^
                   (*table)[((reg >> 16) ^ pack_byte(w)) & 0xFFu]) &
                  kCrcMask;
        }
    }
    for (; i < bits.size(); ++i) {
        seen |= bits[i];
        reg = crc_step(reg, bits[i], poly);
    }
    LTE_CHECK((seen & 0xFEFEFEFEFEFEFEFEULL) == 0, "bits must be 0 or 1");
    return reg;
}

std::vector<std::uint8_t>
crc24_attach(std::vector<std::uint8_t> bits, std::uint32_t poly)
{
    const std::uint32_t crc = crc24(bits, poly);
    for (int i = 23; i >= 0; --i)
        bits.push_back(static_cast<std::uint8_t>((crc >> i) & 1u));
    return bits;
}

bool
crc24_check(BitView bits, std::uint32_t poly)
{
    if (bits.size() < 24)
        return false;
    return crc24(bits, poly) == 0;
}

} // namespace lte::phy

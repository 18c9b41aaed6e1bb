/**
 * @file
 * Cyclic redundancy checks used by LTE transport-channel processing
 * (3GPP TS 36.212 Sec. 5.1.1): CRC-24A for transport blocks and
 * CRC-24B for code blocks, computing the spec's MSB-first polynomial
 * division over GF(2).  CRC-24A and CRC-24B advance a byte per step
 * through static 256-entry tables; any other polynomial takes the
 * bit-serial reference path.
 */
#ifndef LTE_PHY_CRC_HPP
#define LTE_PHY_CRC_HPP

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/types.hpp"

namespace lte::phy {

/** gCRC24A(D) = D^24 + D^23 + D^18 + D^17 + D^14 + D^11 + D^10 + D^7
 *  + D^6 + D^5 + D^4 + D^3 + D + 1. */
inline constexpr std::uint32_t kCrc24APoly = 0x864CFB;

/** gCRC24B(D) = D^24 + D^23 + D^6 + D^5 + D + 1. */
inline constexpr std::uint32_t kCrc24BPoly = 0x800063;

/**
 * Compute a 24-bit CRC over a bit sequence (one bit per byte, values
 * 0/1), MSB-first, zero initial state, as specified by TS 36.212.
 * Takes a view, so vectors and workspace spans both work heap-free.
 * Throws std::invalid_argument if any entry is not 0 or 1.
 */
std::uint32_t crc24(BitView bits, std::uint32_t poly = kCrc24APoly);

/** Append the 24 CRC bits (MSB first) to a copy of @p bits. */
std::vector<std::uint8_t> crc24_attach(std::vector<std::uint8_t> bits,
                                       std::uint32_t poly = kCrc24APoly);

/**
 * @return true if @p bits (payload + 24 CRC bits) passes the check,
 * i.e. the CRC of the whole sequence is zero.
 */
bool crc24_check(BitView bits, std::uint32_t poly = kCrc24APoly);

/** Braced-list conveniences (initializer lists don't bind to spans). */
inline std::uint32_t
crc24(std::initializer_list<std::uint8_t> bits,
      std::uint32_t poly = kCrc24APoly)
{
    return crc24(BitView(bits.begin(), bits.size()), poly);
}

inline bool
crc24_check(std::initializer_list<std::uint8_t> bits,
            std::uint32_t poly = kCrc24APoly)
{
    return crc24_check(BitView(bits.begin(), bits.size()), poly);
}

} // namespace lte::phy

#endif // LTE_PHY_CRC_HPP

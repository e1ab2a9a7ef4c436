// Reflected CRC-32 (polynomial 0xEDB88320, as used by zip/png): the
// checksum shared by the delta journal's record frames and the spill files'
// corruption check.
//
// Computed slice-by-8: eight compile-time lookup tables fold eight input
// bytes per step (the last len % 8 bytes go byte at a time). Polynomial,
// initial value and final xor are the standard ones, so every checksum is
// bit-identical to the textbook bit-at-a-time definition and the on-disk
// journal and spill formats are unchanged. This is CRC-32, not the CRC-32C
// that the SSE4.2 crc32 instruction computes.

#ifndef VULNDS_COMMON_CRC32_H_
#define VULNDS_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace vulnds {

/// Continues a CRC-32 over `len` more bytes at `data`: `prev` is the CRC of
/// everything before them (0 for an empty prefix), so
/// Crc32Extend(Crc32(a), b) == Crc32(a followed by b). Lets a reader check a
/// file column by column as the columns arrive.
uint32_t Crc32Extend(uint32_t prev, const void* data, std::size_t len);

/// CRC-32 over `len` bytes at `data`.
inline uint32_t Crc32(const void* data, std::size_t len) {
  return Crc32Extend(0, data, len);
}

}  // namespace vulnds

#endif  // VULNDS_COMMON_CRC32_H_

#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace vulnds {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0][b] is the CRC register after shifting byte b through it (the
// classic byte-at-a-time table); tables[k][b] is the same for b followed by
// k zero bytes. XOR-ing eight lookups therefore advances the register over
// eight input bytes, with no dependency between the lookups.
constexpr Crc32Tables MakeTables() {
  Crc32Tables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (kPolynomial & (0u - (crc & 1u)));
    }
    tables[0][b] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = MakeTables();

}  // namespace

uint32_t Crc32Extend(uint32_t prev, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  // Undo the previous final xor to recover the running register.
  uint32_t crc = prev ^ 0xFFFFFFFFu;
  // The sliced loop reads little-endian words; a big-endian host simply
  // takes the byte loop below for the whole buffer.
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; bytes += 8, len -= 8) {
      uint32_t lo = 0;
      uint32_t hi = 0;
      std::memcpy(&lo, bytes, sizeof(lo));
      std::memcpy(&hi, bytes + 4, sizeof(hi));
      lo ^= crc;
      crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
  }
  for (; len > 0; ++bytes, --len) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace vulnds

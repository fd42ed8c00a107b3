#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace muxlink::common {

namespace {

// Slicing-by-8 reads each 8-byte block as two little-endian words; a
// big-endian host would need the mirrored table order.
static_assert(std::endian::native == std::endian::little,
              "crc32: slicing-by-8 assumes a little-endian host");

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic bytewise table; tables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight lookups fold one 8-byte block at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  const auto& t = kTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace muxlink::common

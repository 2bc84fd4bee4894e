// Test-only reference CRC32: the byte-at-a-time IEEE loop (reflected
// 0xEDB88320) that train::Crc32 must reproduce. Kept independent of the
// library so oracle and format-pin tests do not check the code against
// itself.

#ifndef DEEPDIRECT_TESTS_CRC32_REFERENCE_H_
#define DEEPDIRECT_TESTS_CRC32_REFERENCE_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace deepdirect::testing {

inline uint32_t ReferenceCrc32(const void* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace deepdirect::testing

#endif  // DEEPDIRECT_TESTS_CRC32_REFERENCE_H_

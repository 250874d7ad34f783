#pragma once
// Test helper: 64-bit FNV-1a over the bytes of a value sequence, the hash
// the bit-for-bit pins (model checkpoints, FFT outputs, trace JSON)
// compare.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace ncar::test {

inline std::uint64_t fnv1a_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::span<const double> values) {
  return fnv1a_bytes(values.data(), values.size_bytes());
}

inline std::uint64_t fnv1a(std::span<const std::complex<double>> values) {
  return fnv1a_bytes(values.data(), values.size_bytes());
}

inline std::uint64_t fnv1a(std::string_view s) {
  return fnv1a_bytes(s.data(), s.size());
}

}  // namespace ncar::test

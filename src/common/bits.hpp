#pragma once

#include <cstdint>

namespace lbnn {

/// C++17 stand-ins for the <bit> helpers the codebase needs (the tier-1
/// build is -std=c++17; gcc/clang builtins compile to the same instructions).
inline int popcount32(std::uint32_t x) { return __builtin_popcount(x); }
inline int popcount64(std::uint64_t x) { return __builtin_popcountll(x); }
/// Undefined for x == 0 (matches the builtin's contract; callers guard).
inline int countr_zero32(std::uint32_t x) { return __builtin_ctz(x); }
inline int countr_zero64(std::uint64_t x) { return __builtin_ctzll(x); }
inline int countl_zero32(std::uint32_t x) { return __builtin_clz(x); }
inline int countl_zero64(std::uint64_t x) { return __builtin_clzll(x); }
/// Smallest power of two >= x (x == 0 or 1 -> 1).
inline std::uint32_t bit_ceil32(std::uint32_t x) {
  if (x <= 1) return 1;
  return 1u << (32 - __builtin_clz(x - 1));
}

}  // namespace lbnn

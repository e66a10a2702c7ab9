// Hashing helpers used by the BDD unique table, computed cache, and the
// content-addressed obligation cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

namespace cmc {

/// 64-bit finalizer (splitmix64); good avalanche for table indices.
inline constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine three 32-bit keys into one table index.
inline constexpr std::uint64_t hash3(std::uint32_t a, std::uint32_t b,
                                     std::uint32_t c) noexcept {
  return mix64((std::uint64_t{a} << 32) ^ (std::uint64_t{b} << 11) ^ c);
}

/// Incremental combine in the boost::hash_combine style.
inline void hashCombine(std::size_t& seed, std::size_t value) noexcept {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Streaming 128-bit content hash: an FNV-1a 64 lane plus an independent
/// multiply-xorshift lane, finalized through mix64.  Not cryptographic —
/// it fingerprints canonical
/// serializations for cache addressing, where 128 bits make accidental
/// collisions negligible and the digest must be stable across processes
/// and platforms (no pointers, no std::hash).
class StableHash128 {
 public:
  StableHash128& update(std::string_view bytes) noexcept {
    for (unsigned char c : bytes) {
      lo_ = (lo_ ^ c) * 0x100000001b3ULL;  // FNV-1a prime
      hi_ = (hi_ + c + 1) * 0x9e3779b97f4a7c15ULL;
      hi_ ^= hi_ >> 29;
    }
    return *this;
  }
  /// Field separator: keeps ("ab","c") distinct from ("a","bc").
  StableHash128& sep() noexcept { return update(std::string_view("\x1f", 1)); }

  /// 32 lowercase hex characters.
  std::string hex() const {
    const std::uint64_t a = mix64(lo_);
    const std::uint64_t b = mix64(hi_ ^ lo_);
    static constexpr char digits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = digits[(a >> (4 * i)) & 0xf];
      out[31 - i] = digits[(b >> (4 * i)) & 0xf];
    }
    return out;
  }

 private:
  std::uint64_t lo_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t hi_ = 0x9e3779b97f4a7c15ULL;
};

/// Hash for std::pair, usable as an unordered_map hasher.
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const noexcept {
    std::size_t seed = std::hash<A>{}(p.first);
    hashCombine(seed, std::hash<B>{}(p.second));
    return seed;
  }
};

}  // namespace cmc

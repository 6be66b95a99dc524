// 64-bit FNV-1a over little-endian 8-byte words: the fingerprint behind
// the loadgen and fault_storm outcome digests. Changing it changes every
// pinned digest.
#pragma once

#include <cstdint>

namespace lamb::support {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;  // offset basis

  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;  // FNV prime
    }
  }
};

}  // namespace lamb::support

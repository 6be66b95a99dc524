// CRC32C (Castagnoli). Lives in support/ rather than io/ so the flight
// recorder (obs/recorder.cpp) can seal its crash dumps without linking
// the io layer (io links obs; the reverse edge would be a cycle). The
// binary formats and the durable store call it directly, so every
// checksum in the repo is this one polynomial.
#pragma once

#include <cstdint>
#include <string_view>

namespace lamb::support {

// `seed` chains partial computations: crc32c(a+b) == crc32c(b, crc32c(a)).
std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0);

// Forces the lazily built lookup table into existence. The recorder's
// fatal-signal handler computes a CRC inside the handler; warming the
// table up front keeps that path free of first-use initialization.
void crc32c_warmup();

}  // namespace lamb::support

// Storage fault injector for the durable-state tests: every corruption a
// disk or a crash can inflict on a state-directory file, applied
// deterministically.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "io/durable.hpp"

namespace lamb::io::storage_fault {

// Truncates the file to its first `keep_bytes` bytes (a torn write).
inline bool torn_write(const std::string& path, std::uint64_t keep_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, keep_bytes, ec);
  return !ec;
}

// Flips bit `bit` (0-7) of byte `offset`.
inline bool bit_flip(const std::string& path, std::uint64_t offset, int bit) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  bool ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0;
  int c = 0;
  if (ok) {
    c = std::fgetc(f);
    ok = c != EOF;
  }
  if (ok) {
    ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
         std::fputc(c ^ (1 << bit), f) != EOF;
  }
  return (std::fclose(f) == 0) && ok;
}

// Reads only the first `max_bytes` bytes (a short read); feed the result
// to a decoder to exercise its truncation paths.
inline bool short_read(const std::string& path, std::uint64_t max_bytes,
                       std::string* out) {
  std::string all;
  if (!read_file_bytes(path, &all, nullptr)) return false;
  *out = all.substr(0, max_bytes);
  return true;
}

}  // namespace lamb::io::storage_fault

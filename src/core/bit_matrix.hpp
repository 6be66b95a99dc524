// Dense Boolean matrices over 64-bit words with a saturating set-bit
// product, implementing the matrix machinery of paper Sections 5 and 6.2:
// R^(k) = R1 I1 R2 I2 ... R_k.
//
// The product kernel iterates the set bits of each left-operand row and
// ORs whole rows of the right operand into the output row (the paper used
// 32-bit words; we use 64), stopping the row as soon as every logical
// column is set. A sparse left factor (the intersection matrices, density
// ~0.03) costs proportionally less, and a dense one costs only the few
// ORs its output rows take to fill, which is why reach_matrices.cpp
// evaluates the chain right to left. Bands of output rows run on the
// par::parallel_for pool. multiply_into reuses the caller's output
// storage, which lets the chain ping-pong two buffers instead of
// allocating one fresh matrix per product.
#pragma once

#include <cstdint>
#include <vector>

#include "support/bitset.hpp"

namespace lamb {

class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::int64_t rows, std::int64_t cols);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  void set(std::int64_t i, std::int64_t j) {
    word(i, j) |= bit(j);
  }
  void reset(std::int64_t i, std::int64_t j) { word(i, j) &= ~bit(j); }
  bool get(std::int64_t i, std::int64_t j) const {
    return (word(i, j) >> (j & 63)) & 1;
  }

  std::int64_t count_ones() const;
  double density() const {
    return rows_ * cols_ == 0
               ? 0.0
               : static_cast<double>(count_ones()) /
                     static_cast<double>(rows_ * cols_);
  }

  // True iff row i is all ones (over the logical width).
  bool row_full(std::int64_t i) const;
  // Bitwise AND of all rows; bit j set iff column j is all ones.
  Bits column_all() const;

  // Boolean product: out(i,j) = OR_k a(i,k) AND b(k,j).
  static BitMatrix multiply(const BitMatrix& a, const BitMatrix& b);
  // out = a * b, reusing out's storage when its shape already matches
  // (a.rows x b.cols) — the steady state of the product chain.
  static void multiply_into(const BitMatrix& a, const BitMatrix& b,
                            BitMatrix* out);

  // --- Word-level row primitives (the incremental R_t reuse turns
  // per-entry copies into a handful of shifted word operations per run of
  // consecutively mapped columns) ---

  // Copies `len` bits of src row `oi` starting at column `src_start` into
  // row `i` starting at column `dst_start` (other row-i bits untouched).
  void copy_row_range(std::int64_t i, std::int64_t dst_start,
                      const BitMatrix& src, std::int64_t oi,
                      std::int64_t src_start, std::int64_t len);

  // Clears every bit of row i that is set in mask; returns how many bits
  // were actually cleared.
  std::int64_t row_clear_masked(std::int64_t i, const Bits& mask);

  friend bool operator==(const BitMatrix&, const BitMatrix&) = default;

 private:
  static void product(const BitMatrix& a, const BitMatrix& b, BitMatrix* out);

  std::uint64_t& word(std::int64_t i, std::int64_t j) {
    return data_[static_cast<std::size_t>(i * words_per_row_ + (j >> 6))];
  }
  const std::uint64_t& word(std::int64_t i, std::int64_t j) const {
    return data_[static_cast<std::size_t>(i * words_per_row_ + (j >> 6))];
  }
  static std::uint64_t bit(std::int64_t j) {
    return std::uint64_t{1} << (j & 63);
  }

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t words_per_row_ = 0;
  std::vector<std::uint64_t> data_;
};

}  // namespace lamb

#include "core/bit_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "support/parallel.hpp"

namespace lamb {

namespace {

// Left factors below this density use the unblocked set-bit kernel: with
// so few bits per k-block, blocking only re-traverses the output rows.
constexpr double kSparseLeftDensity = 0.05;
// Dense left factors at most this many columns wide use the 4-bit table
// kernel below; beyond it the table outgrows L1 and blocking wins.
constexpr std::int64_t kTableKernelMaxCols = 256;
// k-block width in left-operand words: 4 words = 256 right-operand rows
// per block, i.e. a 32 KiB strip of a 2048-column right factor — L1/L2
// resident while a whole band of output rows is updated against it.
constexpr std::int64_t kBlockWords = 4;
// Minimum rows * output-words before row bands go to the pool; smaller
// products (the paper's p,q are often < 100) stay on the calling thread.
constexpr std::int64_t kParallelWorkWords = std::int64_t{1} << 14;

}  // namespace

BitMatrix::BitMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_((cols + 63) / 64),
      data_(static_cast<std::size_t>(rows * words_per_row_), 0) {}

std::int64_t BitMatrix::count_ones() const {
  std::int64_t total = 0;
  for (std::uint64_t w : data_) total += std::popcount(w);
  return total;
}

bool BitMatrix::row_full(std::int64_t i) const {
  const std::uint64_t* row = &data_[static_cast<std::size_t>(i * words_per_row_)];
  for (std::int64_t wi = 0; wi < words_per_row_; ++wi) {
    const std::int64_t bits_here =
        wi == words_per_row_ - 1 && (cols_ & 63) != 0 ? (cols_ & 63) : 64;
    const std::uint64_t mask =
        bits_here == 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << bits_here) - 1);
    if ((row[wi] & mask) != mask) return false;
  }
  return true;
}

Bits BitMatrix::column_all() const {
  Bits acc(cols_);
  if (rows_ == 0) return acc;
  std::vector<std::uint64_t> words(static_cast<std::size_t>(words_per_row_),
                                   ~std::uint64_t{0});
  for (std::int64_t i = 0; i < rows_; ++i) {
    const std::uint64_t* row = &data_[static_cast<std::size_t>(i * words_per_row_)];
    for (std::int64_t wi = 0; wi < words_per_row_; ++wi) {
      words[static_cast<std::size_t>(wi)] &= row[wi];
    }
  }
  for (std::int64_t j = 0; j < cols_; ++j) {
    if ((words[static_cast<std::size_t>(j >> 6)] >> (j & 63)) & 1) acc.set(j);
  }
  return acc;
}

void BitMatrix::product(const BitMatrix& a, const BitMatrix& b,
                        BitMatrix* out) {
  assert(a.cols_ == b.rows_);
  if (out->rows_ != a.rows_ || out->cols_ != b.cols_) {
    *out = BitMatrix(a.rows_, b.cols_);
  } else {
    std::fill(out->data_.begin(), out->data_.end(), 0);
  }
  if (a.rows_ == 0 || a.cols_ == 0 || b.cols_ == 0) return;

  const std::int64_t out_words = out->words_per_row_;
  const std::int64_t a_words = a.words_per_row_;
  const std::int64_t b_words = b.words_per_row_;
  const double density =
      static_cast<double>(a.count_ones()) /
      static_cast<double>(a.rows_ * a.cols_);
  const bool sparse_left = density < kSparseLeftDensity;

  if (!sparse_left && a.cols_ <= kTableKernelMaxCols) {
    // "Four Russians" with 4-bit groups: precompute the OR of every
    // subset of each aligned group of 4 b-rows, then each output row
    // costs one table OR per nibble of its a-row instead of one b-row OR
    // per set bit. Same bits, ~4x fewer word operations — the reach
    // chain's left factors are dense, so the set-bit kernel degenerates
    // to exactly that worst case.
    const std::int64_t groups = (a.cols_ + 3) / 4;
    std::vector<std::uint64_t> table(
        static_cast<std::size_t>(groups * 16 * b_words), 0);
    for (std::int64_t g = 0; g < groups; ++g) {
      std::uint64_t* tg = &table[static_cast<std::size_t>(g * 16 * b_words)];
      const std::int64_t lanes = std::min<std::int64_t>(4, a.cols_ - g * 4);
      for (std::int64_t t = 0; t < lanes; ++t) {
        const std::uint64_t* b_row =
            &b.data_[static_cast<std::size_t>((g * 4 + t) * b_words)];
        std::uint64_t* dst = tg + (std::int64_t{1} << t) * b_words;
        for (std::int64_t wo = 0; wo < b_words; ++wo) dst[wo] = b_row[wo];
      }
      for (std::int64_t x = 3; x < 16; ++x) {
        if ((x & (x - 1)) == 0) continue;  // powers of two set above
        const std::uint64_t* lo = tg + (x & (x - 1)) * b_words;
        const std::uint64_t* hi = tg + (x & -x) * b_words;
        std::uint64_t* dst = tg + x * b_words;
        for (std::int64_t wo = 0; wo < b_words; ++wo) dst[wo] = lo[wo] | hi[wo];
      }
    }
    auto rows = [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t i = r0; i < r1; ++i) {
        std::uint64_t* out_row =
            &out->data_[static_cast<std::size_t>(i * out_words)];
        const std::uint64_t* a_row =
            &a.data_[static_cast<std::size_t>(i * a_words)];
        for (std::int64_t g = 0; g < groups; ++g) {
          // 4-bit groups never straddle a 64-bit word.
          const std::uint64_t nib = (a_row[g >> 4] >> ((g & 15) * 4)) & 0xF;
          if (nib == 0) continue;
          const std::uint64_t* tg = &table[static_cast<std::size_t>(
              (g * 16 + static_cast<std::int64_t>(nib)) * b_words)];
          for (std::int64_t wo = 0; wo < out_words; ++wo) {
            out_row[wo] |= tg[wo];
          }
        }
      }
    };
    if (a.rows_ * out_words >= kParallelWorkWords) {
      par::parallel_for(0, a.rows_, 0, rows);
    } else {
      rows(0, a.rows_);
    }
    return;
  }

  auto band = [&](std::int64_t r0, std::int64_t r1) {
    // Disjoint output rows per band: safe to run bands concurrently.
    const std::int64_t kb_step = sparse_left ? a_words : kBlockWords;
    for (std::int64_t kb = 0; kb < a_words; kb += kb_step) {
      const std::int64_t kb_end = std::min(a_words, kb + kb_step);
      for (std::int64_t i = r0; i < r1; ++i) {
        std::uint64_t* out_row =
            &out->data_[static_cast<std::size_t>(i * out_words)];
        const std::uint64_t* a_row =
            &a.data_[static_cast<std::size_t>(i * a_words)];
        for (std::int64_t wi = kb; wi < kb_end; ++wi) {
          std::uint64_t w = a_row[wi];
          while (w != 0) {
            const std::int64_t k = wi * 64 + std::countr_zero(w);
            w &= w - 1;
            const std::uint64_t* b_row =
                &b.data_[static_cast<std::size_t>(k * b_words)];
            for (std::int64_t wo = 0; wo < out_words; ++wo) {
              out_row[wo] |= b_row[wo];
            }
          }
        }
      }
    }
  };

  if (a.rows_ * out_words >= kParallelWorkWords) {
    par::parallel_for(0, a.rows_, 0, band);
  } else {
    band(0, a.rows_);
  }
}

BitMatrix BitMatrix::multiply(const BitMatrix& a, const BitMatrix& b) {
  BitMatrix out;
  product(a, b, &out);
  return out;
}

void BitMatrix::multiply_into(const BitMatrix& a, const BitMatrix& b,
                              BitMatrix* out) {
  product(a, b, out);
}

void BitMatrix::multiply_rows_into(const BitMatrix& a, const BitMatrix& b,
                                   const std::vector<std::uint8_t>& compute_row,
                                   BitMatrix* out) {
  assert(a.cols_ == b.rows_);
  assert(out->rows_ == a.rows_ && out->cols_ == b.cols_);
  assert(static_cast<std::int64_t>(compute_row.size()) == a.rows_);
  const std::int64_t out_words = out->words_per_row_;
  const std::int64_t a_words = a.words_per_row_;
  const std::int64_t b_words = b.words_per_row_;
  for (std::int64_t i = 0; i < a.rows_; ++i) {
    if (compute_row[static_cast<std::size_t>(i)] == 0) continue;
    std::uint64_t* out_row = &out->data_[static_cast<std::size_t>(i * out_words)];
    std::fill(out_row, out_row + out_words, 0);
    const std::uint64_t* a_row = &a.data_[static_cast<std::size_t>(i * a_words)];
    for (std::int64_t wi = 0; wi < a_words; ++wi) {
      std::uint64_t w = a_row[wi];
      while (w != 0) {
        const std::int64_t k = wi * 64 + std::countr_zero(w);
        w &= w - 1;
        const std::uint64_t* b_row =
            &b.data_[static_cast<std::size_t>(k * b_words)];
        for (std::int64_t wo = 0; wo < out_words; ++wo) {
          out_row[wo] |= b_row[wo];
        }
      }
    }
  }
}

namespace {

// Reads `len` (1..64) bits starting at absolute bit `pos` from `words`.
// The range must be in bounds; the straddling second word is only touched
// when the range actually crosses into it.
std::uint64_t read_bits(const std::uint64_t* words, std::int64_t pos,
                        std::int64_t len) {
  const std::int64_t wi = pos >> 6;
  const std::int64_t off = pos & 63;
  std::uint64_t v = words[wi] >> off;
  if (off != 0 && off + len > 64) v |= words[wi + 1] << (64 - off);
  return len == 64 ? v : v & ((std::uint64_t{1} << len) - 1);
}

}  // namespace

void BitMatrix::copy_row_range(std::int64_t i, std::int64_t dst_start,
                               const BitMatrix& src, std::int64_t oi,
                               std::int64_t src_start, std::int64_t len) {
  assert(dst_start >= 0 && dst_start + len <= cols_);
  assert(src_start >= 0 && src_start + len <= src.cols_);
  std::uint64_t* dst = &data_[static_cast<std::size_t>(i * words_per_row_)];
  const std::uint64_t* s =
      &src.data_[static_cast<std::size_t>(oi * src.words_per_row_)];
  std::int64_t dpos = dst_start;
  std::int64_t spos = src_start;
  while (len > 0) {
    // One destination word per iteration: gather up to 64 source bits
    // (possibly straddling two source words) and merge them in place.
    const std::int64_t off = dpos & 63;
    const std::int64_t n = std::min<std::int64_t>(len, 64 - off);
    const std::uint64_t chunk = read_bits(s, spos, n);
    const std::uint64_t keep =
        n == 64 ? std::uint64_t{0}
                : ~(((std::uint64_t{1} << n) - 1) << off);
    std::uint64_t& w = dst[dpos >> 6];
    w = (w & keep) | (chunk << off);
    dpos += n;
    spos += n;
    len -= n;
  }
}

bool BitMatrix::row_range_equals(std::int64_t i, std::int64_t start,
                                 const BitMatrix& other, std::int64_t oi,
                                 std::int64_t ostart, std::int64_t len) const {
  assert(start >= 0 && start + len <= cols_);
  assert(ostart >= 0 && ostart + len <= other.cols_);
  const std::uint64_t* a = &data_[static_cast<std::size_t>(i * words_per_row_)];
  const std::uint64_t* b =
      &other.data_[static_cast<std::size_t>(oi * other.words_per_row_)];
  while (len > 0) {
    const std::int64_t n = std::min<std::int64_t>(len, 64);
    if (read_bits(a, start, n) != read_bits(b, ostart, n)) return false;
    start += n;
    ostart += n;
    len -= n;
  }
  return true;
}

std::int64_t BitMatrix::row_and_count(std::int64_t i, const Bits& mask) const {
  assert(mask.size() == cols_);
  const std::uint64_t* row = &data_[static_cast<std::size_t>(i * words_per_row_)];
  const auto& mw = mask.words();
  std::int64_t total = 0;
  for (std::size_t wi = 0; wi < mw.size(); ++wi) {
    total += std::popcount(row[wi] & mw[wi]);
  }
  return total;
}

bool BitMatrix::row_intersects(std::int64_t i, const Bits& mask) const {
  assert(mask.size() == cols_);
  const std::uint64_t* row = &data_[static_cast<std::size_t>(i * words_per_row_)];
  const auto& mw = mask.words();
  for (std::size_t wi = 0; wi < mw.size(); ++wi) {
    if ((row[wi] & mw[wi]) != 0) return true;
  }
  return false;
}

std::int64_t BitMatrix::row_clear_masked(std::int64_t i, const Bits& mask) {
  assert(mask.size() == cols_);
  std::uint64_t* row = &data_[static_cast<std::size_t>(i * words_per_row_)];
  const auto& mw = mask.words();
  std::int64_t cleared = 0;
  for (std::size_t wi = 0; wi < mw.size(); ++wi) {
    cleared += std::popcount(row[wi] & mw[wi]);
    row[wi] &= ~mw[wi];
  }
  return cleared;
}

}  // namespace lamb

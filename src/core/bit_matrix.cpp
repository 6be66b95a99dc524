#include "core/bit_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "support/parallel.hpp"

namespace lamb {

namespace {

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
  const std::int64_t last = out_words - 1;
  // The last word's padding bits are never set (b's padding is zero), so
  // the fill test counts them as set: a row is full once every logical
  // column is.
  const std::uint64_t pad =
      (b.cols_ & 63) == 0 ? 0 : ~std::uint64_t{0} << (b.cols_ & 63);

  // One set-bit loop per output row: OR in the b-row of every set bit of
  // the a-row, and stop as soon as the row is full, since further ORs
  // cannot change it. The R-chain's dense left factors (R_t, density
  // ~0.7) multiply right factors whose rows saturate after a few ORs, and
  // its sparse ones (I_t, ~0.03) have only a few bits to visit.
  auto row = [&](std::int64_t i) {
    std::uint64_t* out_row = &out->data_[static_cast<std::size_t>(i * out_words)];
    const std::uint64_t* a_row = &a.data_[static_cast<std::size_t>(i * a_words)];
    for (std::int64_t wi = 0; wi < a_words; ++wi) {
      std::uint64_t w = a_row[wi];
      while (w != 0) {
        const std::int64_t k = wi * 64 + std::countr_zero(w);
        w &= w - 1;
        const std::uint64_t* b_row =
            &b.data_[static_cast<std::size_t>(k * out_words)];
        std::uint64_t filled = (out_row[last] |= b_row[last]) | pad;
        for (std::int64_t wo = 0; wo < last; ++wo) {
          filled &= (out_row[wo] |= b_row[wo]);
        }
        if (filled == ~std::uint64_t{0}) return;
      }
    }
  };
  auto rows = [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) row(i);
  };

  // Disjoint output rows per band: safe to run bands concurrently.
  if (a.rows_ * out_words >= kParallelWorkWords) {
    par::parallel_for(0, a.rows_, 0, rows);
  } else {
    rows(0, a.rows_);
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

// Dynamic fixed-size bitset with word-level access, used for reachability
// sets and as rows of Boolean matrices. std::vector<bool> is avoided
// because word-parallel OR/AND and set-bit iteration are on the critical
// path of Find-Reachability (paper Section 6.2 uses "bitwise Boolean
// operation on 32-bit words"; we use 64-bit words).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace lamb {

class Bits {
 public:
  Bits() = default;
  explicit Bits(std::int64_t size)
      : size_(size), words_((static_cast<std::size_t>(size) + 63) / 64, 0) {}

  std::int64_t size() const { return size_; }

  void set(std::int64_t i) {
    assert(i >= 0 && i < size_);
    words_[static_cast<std::size_t>(i >> 6)] |= (std::uint64_t{1} << (i & 63));
  }
  void reset(std::int64_t i) {
    assert(i >= 0 && i < size_);
    words_[static_cast<std::size_t>(i >> 6)] &= ~(std::uint64_t{1} << (i & 63));
  }
  bool test(std::int64_t i) const {
    assert(i >= 0 && i < size_);
    return (words_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1;
  }

  void clear() { words_.assign(words_.size(), 0); }

  // Sets every bit in [begin, end).
  void set_range(std::int64_t begin, std::int64_t end) {
    assert(0 <= begin && begin <= end && end <= size_);
    if (begin == end) return;
    const std::size_t first = static_cast<std::size_t>(begin >> 6);
    const std::size_t last = static_cast<std::size_t>((end - 1) >> 6);
    const std::uint64_t head = ~std::uint64_t{0} << (begin & 63);
    const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    if (first == last) {
      words_[first] |= head & tail;
      return;
    }
    words_[first] |= head;
    for (std::size_t i = first + 1; i < last; ++i) words_[i] = ~std::uint64_t{0};
    words_[last] |= tail;
  }

  std::int64_t count() const {
    std::int64_t total = 0;
    for (std::uint64_t w : words_) total += std::popcount(w);
    return total;
  }

  bool any() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  Bits& operator|=(const Bits& other) {
    assert(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  Bits& operator&=(const Bits& other) {
    assert(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  friend bool operator==(const Bits&, const Bits&) = default;

  // Calls fn(index) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn(static_cast<std::int64_t>(wi) * 64 + bit);
        w &= w - 1;
      }
    }
  }

  const std::vector<std::uint64_t>& words() const { return words_; }
  // Raw word access for word-parallel kernels. Bits at or past size() must
  // stay clear.
  std::uint64_t* word_data() { return words_.data(); }

 private:
  std::int64_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace lamb

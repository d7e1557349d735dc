// Power-of-two ring buffer indexed by *absolute* stream position — the
// storage discipline of the streaming receiver (DESIGN.md §10). The buffer
// holds a contiguous span [begin, end) of an unbounded stream: push()
// appends at `end`, release() advances `begin`, and operator[] takes the
// absolute position, so client code never translates stream positions into
// storage offsets (the mask does it). Capacity doubles lazily when the live
// span outgrows it and then persists, so a client whose live span is
// bounded (the receiver's detection window) reaches a fixed high-water
// capacity and allocates nothing afterwards.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/expect.h"

namespace cbma::util {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t initial_capacity = 4096) {
    std::size_t cap = 2;
    while (cap < initial_capacity) cap *= 2;
    data_.resize(cap);
  }

  /// Absolute position of the oldest retained element.
  std::uint64_t begin() const { return begin_; }
  /// Absolute position one past the newest element (== total pushed since
  /// the last clear()).
  std::uint64_t end() const { return end_; }
  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  std::size_t capacity() const { return data_.size(); }
  /// Resident storage — the O(window) quantity the streaming bench tracks.
  std::size_t bytes() const { return data_.capacity() * sizeof(T); }

  void push(const T& value) {
    if (size() == data_.size()) grow();
    data_[static_cast<std::size_t>(end_ & mask())] = value;
    ++end_;
  }

  /// Append value_at(0), …, value_at(n − 1): the same contents and
  /// capacity as n push() calls, with the write position held in a register
  /// for the run instead of stored back after every element.
  template <typename F>
  void push_n(std::size_t n, F&& value_at) {
    while (size() + n > data_.size()) grow();
    const std::uint64_t m = mask();
    T* const d = data_.data();
    std::uint64_t e = end_;
    for (std::size_t i = 0; i < n; ++i, ++e) d[static_cast<std::size_t>(e & m)] = value_at(i);
    end_ = e;
  }

  /// Element at absolute position `pos`; must lie in [begin, end).
  const T& operator[](std::uint64_t pos) const {
    return data_[static_cast<std::size_t>(pos & mask())];
  }

  /// Drop everything before `floor` (monotonic; clamped to end()).
  void release(std::uint64_t floor) {
    if (floor > begin_) begin_ = std::min(floor, end_);
  }

  /// Copy the absolute range [from, to) into `out` (resized to fit).
  void copy_out(std::uint64_t from, std::uint64_t to, std::vector<T>& out) const {
    CBMA_REQUIRE(from >= begin_ && to <= end_ && from <= to,
                 "ring copy range outside retained window");
    const std::size_t n = static_cast<std::size_t>(to - from);
    out.resize(n);
    const std::size_t lo = static_cast<std::size_t>(from & mask());
    const std::size_t head = std::min(n, data_.size() - lo);
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(lo), head, out.begin());
    std::copy_n(data_.begin(), n - head,
                out.begin() + static_cast<std::ptrdiff_t>(head));
  }

  /// Reset positions to 0. Capacity (the high-water mark) is kept, so a
  /// reused session does not re-grow.
  void clear() { begin_ = end_ = 0; }

 private:
  std::uint64_t mask() const { return data_.size() - 1; }

  void grow() {
    std::vector<T> bigger(data_.size() * 2);
    const std::uint64_t big_mask = bigger.size() - 1;
    for (std::uint64_t pos = begin_; pos < end_; ++pos) {
      bigger[static_cast<std::size_t>(pos & big_mask)] =
          data_[static_cast<std::size_t>(pos & mask())];
    }
    data_ = std::move(bigger);
  }

  std::vector<T> data_;
  std::uint64_t begin_ = 0;
  std::uint64_t end_ = 0;
};

}  // namespace cbma::util

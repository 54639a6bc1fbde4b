// Monotone radix event queue (DESIGN.md §5.4): a radix heap (Ahuja,
// Mehlhorn, Orlin and Tarjan, JACM 1990) keyed on the IEEE-754 bits of the
// time, which order like the times for t >= 0. Bucket b > 0 holds the
// entries whose key first differs from `last_`, the last pop's key, in bit
// b - 1; bucket 0 holds those due at `last_`. A pop takes bucket 0's head,
// settling first when it is empty: `last_` moves to the minimum of the
// first non-empty bucket, which spreads over the lower ones. Buckets are
// FIFO lists threaded through `next_` and settling keeps their order, so
// equal times pop in push order. Payloads sit in a slab with a free list,
// so storage tracks the pending count.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace mifo::dp {

template <typename T>
class EventQueue {
 public:
  EventQueue() { head_.fill(kNil); }

  [[nodiscard]] bool empty() const {
    return head_[0] == kNil && occupied_ == 0;
  }

  /// Schedules `payload` at `t`. Expects t >= the time of the last pop (0
  /// before the first), which also rules out negative times and NaN.
  void push(SimTime t, T payload) {
    MIFO_EXPECTS(t >= std::bit_cast<SimTime>(last_));
    const auto key = std::bit_cast<std::uint64_t>(t + 0.0);  // -0.0 -> +0.0
    std::uint32_t slot = free_;
    if (slot != kNil) {
      free_ = next_[slot];
      key_[slot] = key;
      payload_[slot] = std::move(payload);
    } else {
      slot = static_cast<std::uint32_t>(key_.size());
      key_.push_back(key);
      next_.push_back(kNil);
      payload_.push_back(std::move(payload));
    }
    append(bucket_of(key), slot);
  }

  /// Earliest pending time, +inf when empty. A peek never settles, so a
  /// caller may still push anywhere at or after the last pop's time.
  [[nodiscard]] SimTime min_time() const {
    if (empty()) return std::numeric_limits<SimTime>::infinity();
    return std::bit_cast<SimTime>(min_key(first_bucket()));
  }

  /// Pops the earliest entry, the first pushed among equal times, into `t`
  /// and `out` if its time is <= `bound`. Returns whether it popped.
  bool pop_at_most(SimTime bound, SimTime& t, T& out) {
    if (empty()) return false;
    const int b = first_bucket();
    const std::uint64_t m = min_key(b);
    if (std::bit_cast<SimTime>(m) > bound) return false;
    if (b != 0) settle(b, m);
    const std::uint32_t slot = head_[0];
    head_[0] = next_[slot];
    t = std::bit_cast<SimTime>(last_);
    out = std::move(payload_[slot]);
    next_[slot] = free_;
    free_ = slot;
    return true;
  }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] int bucket_of(std::uint64_t key) const {
    return 64 - std::countl_zero(key ^ last_);
  }
  /// Expects a non-empty queue.
  [[nodiscard]] int first_bucket() const {
    return head_[0] != kNil ? 0 : 1 + std::countr_zero(occupied_);
  }
  [[nodiscard]] std::uint64_t min_key(int b) const {
    if (b == 0) return last_;
    std::uint64_t m = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t s = head_[b]; s != kNil; s = next_[s]) {
      m = std::min(m, key_[s]);
    }
    return m;
  }
  void append(int b, std::uint32_t slot) {
    next_[slot] = kNil;
    if (head_[b] == kNil) {
      head_[b] = slot;
      if (b != 0) occupied_ |= std::uint64_t{1} << (b - 1);
    } else {
      next_[tail_[b]] = slot;
    }
    tail_[b] = slot;
  }
  /// Moves `last_` to bucket b's minimum `m` and spreads the bucket, in
  /// order, over the lower buckets (all empty: b is the first non-empty).
  void settle(int b, std::uint64_t m) {
    std::uint32_t s = head_[b];
    head_[b] = kNil;
    occupied_ &= ~(std::uint64_t{1} << (b - 1));
    last_ = m;
    while (s != kNil) {
      const std::uint32_t next = next_[s];
      append(bucket_of(key_[s]), s);
      s = next;
    }
  }

  std::vector<std::uint64_t> key_;
  std::vector<std::uint32_t> next_;  ///< list link, or free-list link
  std::vector<T> payload_;
  std::uint32_t free_ = kNil;
  std::array<std::uint32_t, 65> head_;  ///< kNil: empty bucket
  std::array<std::uint32_t, 65> tail_{};
  std::uint64_t occupied_ = 0;  ///< bit b - 1 set iff bucket b > 0 non-empty
  std::uint64_t last_ = 0;
};

}  // namespace mifo::dp

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

/// \file histogram.h
/// Fixed-memory latency histogram for the end-to-end bench.
///
/// Log-linear buckets over nanoseconds: exact below 128 ns, then 128 linear
/// sub-buckets per power of two (bucket width <= 0.8% of its value) up to
/// 2^40 ns. One instance lives per thread and op class, so recording is a
/// plain increment; a snapshot merges them. Quantiles interpolate linearly
/// inside the bucket that holds the rank, so a median moves smoothly between
/// runs instead of stepping by a bucket width.

namespace e2e {

class Histogram {
 public:
  void Record(uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
    sum_ns_ += ns;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
  }

  uint64_t count() const { return count_; }
  uint64_t sum_ns() const { return sum_ns_; }

  /// The q-quantile (0 <= q <= 1) in nanoseconds; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_);
    uint64_t below = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t c = buckets_[i];
      if (c == 0) continue;
      if (static_cast<double>(below + c) >= rank) {
        const double frac = (rank - static_cast<double>(below)) /
                            static_cast<double>(c);
        return Lower(i) + frac * Width(i);
      }
      below += c;
    }
    return Lower(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kMaxExp = 40;
  static constexpr size_t kBuckets = kSub + (kMaxExp - kSubBits) * kSub;

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    if (e >= kMaxExp) return kBuckets - 1;
    const int shift = e - kSubBits;
    return static_cast<size_t>(kSub + static_cast<uint64_t>(shift) * kSub +
                               ((v >> shift) - kSub));
  }

  static double Lower(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const size_t shift = (i - kSub) / kSub;
    const uint64_t sub = (i - kSub) % kSub;
    return static_cast<double>((kSub + sub) << shift);
  }

  static double Width(size_t i) {
    if (i < kSub) return 1.0;
    return static_cast<double>(uint64_t{1} << ((i - kSub) / kSub));
  }

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
};

}  // namespace e2e

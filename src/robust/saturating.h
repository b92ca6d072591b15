#ifndef TPSTREAM_ROBUST_SATURATING_H_
#define TPSTREAM_ROBUST_SATURATING_H_

#include <cstdint>
#include <limits>

namespace tpstream {
namespace robust {

/// Saturating arithmetic for overload accounting and time bounds.
///
/// Overload accounting (Degradation contract): shed counts and
/// lost-match upper bounds are products of buffer sizes and can exceed
/// int64 range under sustained flooding. A bound that wraps is worse than
/// useless — it understates the loss — so every multiplied or accumulated
/// overload statistic pins at int64 max instead. SaturatingMul's domain
/// is non-negative (counts).
///
/// Time bounds: the join core's window limits (`ts + W`, `te - W`,
/// `te - ts`) use SaturatingAdd / SaturatingSub on signed time points, so
/// a WITHIN near INT64_MAX or timestamps near the TimePoint limits pin at
/// the int64 limits instead of overflowing.

constexpr int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return b > 0 ? std::numeric_limits<int64_t>::max()
                 : std::numeric_limits<int64_t>::min();
  }
  return out;
}

constexpr int64_t SaturatingSub(int64_t a, int64_t b) {
  int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out)) {
    return b < 0 ? std::numeric_limits<int64_t>::max()
                 : std::numeric_limits<int64_t>::min();
  }
  return out;
}

constexpr int64_t SaturatingMul(int64_t a, int64_t b) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (a == 0 || b == 0) return 0;
  return (a > kMax / b) ? kMax : a * b;
}

}  // namespace robust
}  // namespace tpstream

#endif  // TPSTREAM_ROBUST_SATURATING_H_

#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace asyncmg {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> xs, double p) {
  if (!(p >= 0.0 && p <= 100.0)) {  // also rejects NaN
    throw std::invalid_argument("percentile: p must be in [0, 100], got " +
                                std::to_string(p));
  }
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (xs.size() == 1) return xs.front();
  if (p <= 0.0) return min_of(xs);
  if (p >= 100.0) return max_of(xs);
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

RecentSamples::RecentSamples(std::size_t capacity) : cap_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("RecentSamples: capacity must be > 0");
  }
  buf_.reserve(capacity);
}

void RecentSamples::add(double x) {
  if (buf_.size() < cap_) {
    buf_.push_back(x);
  } else {
    buf_[next_] = x;
    next_ = (next_ + 1) % cap_;
  }
}

double geometric_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) {
    if (x <= 0.0) throw std::invalid_argument("geometric_mean: nonpositive");
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(xs.size()));
}

double min_of(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(xs.begin(), xs.end());
}

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace asyncmg

#pragma once
// Small statistics helpers for averaging benchmark runs (the paper reports
// the mean of 20 runs for every data point).

#include <cstddef>
#include <vector>

namespace asyncmg {

double mean(const std::vector<double>& xs);
double variance(const std::vector<double>& xs);  // population variance
double stddev(const std::vector<double>& xs);
double median(std::vector<double> xs);           // by value: sorts a copy
/// p-th percentile with linear interpolation between order statistics;
/// by value: sorts a copy. Used for service latency p50/p95 and telemetry
/// histogram snapshots. Edge cases are defined: an empty sample returns
/// quiet NaN, a single sample is every percentile of itself, and p outside
/// [0,100] (or NaN) throws std::invalid_argument naming the bad value.
double percentile(std::vector<double> xs, double p);
double geometric_mean(const std::vector<double>& xs);  // requires xs > 0
double min_of(const std::vector<double>& xs);
double max_of(const std::vector<double>& xs);

/// Fixed-capacity ring of the most recent samples: add() is O(1) and the
/// memory stays at `capacity` doubles however many samples arrive, so
/// long-running services can keep percentiles over a recent window.
class RecentSamples {
 public:
  explicit RecentSamples(std::size_t capacity);
  void add(double x);
  /// The retained samples (the last min(count, capacity) added), unordered.
  const std::vector<double>& samples() const { return buf_; }
  std::size_t capacity() const { return cap_; }

 private:
  std::vector<double> buf_;
  std::size_t cap_;
  std::size_t next_ = 0;  // slot the next sample overwrites once full
};

/// Online accumulator (Welford) for streaming runs.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace asyncmg

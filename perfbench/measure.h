// Arithmetic of the benchmark's measurements: percentiles, ratios with an
// explicit base, and trace spans with self time. Header-only so the benchmark
// (main.cc) and its own tests (selftest.cc) share one definition.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile p among n samples. The epsilon keeps
/// 99.9% of 10000 at rank 9990 despite binary rounding.
inline size_t NearestRank(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::min(n, static_cast<size_t>(std::max(rank, 1.0)));
}

/// Nearest-rank percentile of `samples` (p in (0, 100]); 0 when empty.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

/// Samples strictly above the nearest-rank position of percentile p.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

/// Whether a run of n samples supports reporting percentile p: at least ten
/// samples must lie beyond it, so one outlier cannot be the whole tail.
inline bool PercentileSupported(size_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= 10;
}

/// The highest of the reported tail percentiles (99.9, 99, 90) that n
/// samples support; 50 when none does.
inline double HighestSupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 90.0}) {
    if (PercentileSupported(n, p)) return p;
  }
  return 50.0;
}

/// part / base, or 0 when the base is empty. Every ratio the benchmark
/// reports names its base next to it.
inline double Ratio(double part, double base) {
  return base > 0.0 ? part / base : 0.0;
}

/// One traced interval. Times are seconds on the benchmark's monotonic
/// clock. `parent` is -1 for a root; spans of one request share `request`.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = 0;
  double duration() const { return end - start; }
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline double CoveredLength(std::vector<std::pair<double, double>> intervals,
                            double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

/// Self time of every span, keyed by id: its duration minus the part of its
/// interval that its direct children cover (overlapping children counted
/// once, parts of a child outside the parent not at all).
inline std::map<int64_t, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans) {
    if (span.parent >= 0) children[span.parent].push_back({span.start, span.end});
  }
  std::map<int64_t, double> self;
  for (const Span& span : spans) {
    auto it = children.find(span.id);
    double covered =
        it == children.end() ? 0.0
                             : CoveredLength(it->second, span.start, span.end);
    self[span.id] = span.duration() - covered;
  }
  return self;
}

/// For each root span, the root's duration minus the summed self times of
/// every span of its tree. Zero (up to rounding) whenever siblings do not
/// overlap and children stay inside their parents — the benchmark checks
/// this on its own traces.
inline std::map<int64_t, double> RootResiduals(const std::vector<Span>& spans) {
  std::map<int64_t, double> self = SelfTimes(spans);
  std::map<int64_t, int64_t> parent_of;
  for (const Span& span : spans) parent_of[span.id] = span.parent;
  std::map<int64_t, double> residual;
  for (const Span& span : spans) {
    if (span.parent < 0) residual[span.id] += span.duration();
  }
  for (const Span& span : spans) {
    int64_t root = span.id;
    while (parent_of.count(root) && parent_of[root] >= 0) root = parent_of[root];
    residual[root] -= self[span.id];
  }
  return residual;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_

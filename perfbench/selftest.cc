// Tests of the benchmark's own arithmetic on synthetic inputs: span self
// time with nested and overlapping children, the "highest percentile with at
// least ten samples beyond" rule, and ratios with an empty base.
//
// Run: python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

perfbench::Span MakeSpan(int64_t id, int64_t parent, double start, double end) {
  perfbench::Span span;
  span.name = "s";
  span.id = id;
  span.parent = parent;
  span.start = start;
  span.end = end;
  return span;
}

void TestSelfTimeNested() {
  // root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9].
  std::vector<perfbench::Span> spans = {
      MakeSpan(1, -1, 0, 10), MakeSpan(2, 1, 1, 4), MakeSpan(3, 2, 2, 3),
      MakeSpan(4, 1, 5, 9)};
  auto self = perfbench::SelfTimes(spans);
  Check(Near(self[1], 3.0), "root self = 10 - 3 - 4");
  Check(Near(self[2], 2.0), "child self excludes grandchild");
  Check(Near(self[3], 1.0), "leaf self = duration");
  Check(Near(self[4], 4.0), "second child self");
  auto residual = perfbench::RootResiduals(spans);
  Check(Near(residual[1], 0.0), "self times of a tree add up to the root");
}

void TestSelfTimeOverlapping() {
  // Overlapping children [1,5] and [3,8] cover [1,8] once: root self = 3.
  // A child sticking out of its parent [9,12] covers only [9,10].
  std::vector<perfbench::Span> spans = {MakeSpan(1, -1, 0, 10),
                                        MakeSpan(2, 1, 1, 5),
                                        MakeSpan(3, 1, 3, 8),
                                        MakeSpan(4, 1, 9, 12)};
  auto self = perfbench::SelfTimes(spans);
  Check(Near(self[1], 10.0 - 7.0 - 1.0), "overlap counted once, outside clipped");
  // Identical children cover their interval once.
  std::vector<perfbench::Span> twins = {MakeSpan(1, -1, 0, 4),
                                        MakeSpan(2, 1, 1, 3),
                                        MakeSpan(3, 1, 1, 3)};
  Check(Near(perfbench::SelfTimes(twins)[1], 2.0), "identical children once");
  // A root with no children is all self time.
  std::vector<perfbench::Span> lone = {MakeSpan(7, -1, 2, 2.5)};
  Check(Near(perfbench::SelfTimes(lone)[7], 0.5), "childless span");
}

void TestPercentileRule() {
  using perfbench::HighestSupportedPercentile;
  using perfbench::PercentileSupported;
  Check(!PercentileSupported(99, 90), "99 samples: p90 has 9 beyond");
  Check(PercentileSupported(100, 90), "100 samples: p90 has 10 beyond");
  Check(!PercentileSupported(999, 99), "999 samples: p99 has 9 beyond");
  Check(PercentileSupported(1000, 99), "1000 samples: p99 has 10 beyond");
  Check(HighestSupportedPercentile(50) == 50.0, "50 samples: median only");
  Check(HighestSupportedPercentile(500) == 90.0, "500 samples: p90");
  Check(HighestSupportedPercentile(5000) == 99.0, "5000 samples: p99");
  Check(HighestSupportedPercentile(10000) == 99.9, "10000 samples: p99.9");
  Check(!PercentileSupported(0, 50), "no samples: nothing");

  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(101 - i);  // unsorted
  Check(perfbench::Percentile(values, 50) == 50.0, "nearest-rank median");
  Check(perfbench::Percentile(values, 90) == 90.0, "nearest-rank p90");
  Check(perfbench::Percentile(values, 100) == 100.0, "p100 is the max");
  Check(perfbench::Percentile({}, 50) == 0.0, "empty percentile");
  // Failed requests enter as +inf and so count beyond any finite limit.
  std::vector<double> with_failures(95, 1.0);
  with_failures.insert(with_failures.end(), 5, INFINITY);
  Check(perfbench::Percentile(with_failures, 90) == 1.0, "5% failures below p90");
  Check(std::isinf(perfbench::Percentile(with_failures, 99)), "failures in p99");
}

void TestRatios() {
  Check(Near(perfbench::Ratio(3, 4), 0.75), "ratio");
  Check(perfbench::Ratio(3, 0) == 0.0, "empty base gives 0");
  Check(perfbench::Ratio(0, 5) == 0.0, "zero part");
}

}  // namespace

int main() {
  TestSelfTimeNested();
  TestSelfTimeOverlapping();
  TestPercentileRule();
  TestRatios();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

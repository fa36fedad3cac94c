// Seeded input generators of the benchmark. The benchmark owns them (rather
// than reusing src/workload) so that a change to the engine's own example
// generators can never change what the benchmark measures. Every function is
// a pure function of its arguments.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the same sequence on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// A seed derived from the run seed and a purpose tag, so every generator
/// and client draws from its own stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// <bib> of `records` books in the paper's Section 2 shape: title, at most
/// one author (so the collection shreds), usually a publisher, year, price,
/// and sometimes a discount.
std::string BooksXml(int records, uint64_t seed);

/// <sales> of `records` sale elements: timestamp, product, state, region,
/// quantity, price (the paper's Q3 input).
std::string SalesXml(int records, uint64_t seed);

/// <orders> of `orders` purchase orders in the paper's Section 6 shape, on
/// average four lineitems each, about 3 KB of text per order.
std::string OrdersXml(int orders, uint64_t seed);

/// One collection member: its URI and its XML text.
struct CorpusDoc {
  std::string collection;
  std::string uri;
  std::string xml;
};

/// `docs` documents of each of the books and sales collections,
/// `records` records per document, interleaved books/sales.
std::vector<CorpusDoc> CollectionCorpus(int docs, int records, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_

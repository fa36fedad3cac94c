#include "corpus.h"

#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

template <typename T, size_t N>
const T& Pick(Rng* rng, const T (&pool)[N]) {
  return pool[rng->Int(0, static_cast<int64_t>(N) - 1)];
}

const char* const kTitleWords[] = {
    "Transaction", "Processing", "Database", "Systems", "Distributed",
    "Query", "Optimization", "Principles", "Foundations", "Advanced",
    "Modern", "Practical", "Readings", "Concurrency", "Streams"};
const char* const kAuthors[] = {
    "Jim Gray", "Andreas Reuter", "Don Chamberlin", "Jim Melton",
    "Michael Stonebraker", "Jennifer Widom", "Hector Garcia-Molina",
    "Jeffrey Ullman", "Serge Abiteboul", "David DeWitt", "Goetz Graefe",
    "Pat Selinger"};
const char* const kProducts[] = {"Green Tea", "Black Tea", "Oolong",
                                 "White Tea", "Chai",      "Matcha",
                                 "Earl Grey", "Rooibos",   "Jasmine",
                                 "Mint Tea",  "Pu-erh",    "Darjeeling"};
struct Region {
  const char* name;
  const char* states[4];
  int count;
};
const Region kRegions[] = {{"West", {"CA", "OR", "WA", "NV"}, 4},
                           {"East", {"NY", "MA", "NJ", "CT"}, 4},
                           {"South", {"TX", "FL", "GA", ""}, 3},
                           {"Midwest", {"IL", "OH", "MI", ""}, 3}};
const char* const kCustomers[] = {
    "Acme Retail",      "Globex Corporation", "Initech Systems",
    "Umbrella Supplies", "Stark Industrial",  "Wayne Logistics",
    "Tyrell Wholesale", "Cyberdyne Parts",    "Wonka Distribution",
    "Oscorp Trading"};
const char* const kCities[] = {"San Jose", "Baltimore", "Chicago", "Austin",
                               "Seattle",  "Boston",    "Denver",  "Atlanta"};
const char* const kComments[] = {
    "expedite per customer request and confirm receipt by fax",
    "fragile goods, handle with care during transfer",
    "standard handling, no special instructions apply",
    "priority account, notify sales representative on delay",
    "bulk packaging acceptable for this shipment"};

std::string Cents(int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld",
                static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  return buf;
}

void Lineitem(std::ostringstream& o, Rng* rng, int line) {
  // Distinct-value counts of the grouping children follow the paper's
  // TPC-H-like defaults: 4 ship instructions, 7 ship modes, 9 tax rates,
  // 50 quantities.
  o << "    <lineitem>\n"
    << "      <linenumber>" << line << "</linenumber>\n"
    << "      <partkey>P-" << rng->Int(1, 20000) << "</partkey>\n"
    << "      <suppkey>S-" << rng->Int(1, 1000) << "</suppkey>\n"
    << "      <quantity>" << rng->Int(1, 50) << "</quantity>\n"
    << "      <extendedprice>" << Cents(rng->Int(100, 99999))
    << "</extendedprice>\n"
    << "      <discount>0.0" << rng->Int(0, 9) << "</discount>\n"
    << "      <tax>0." << 10 + rng->Int(0, 8) << "</tax>\n"
    << "      <returnflag>" << (rng->Int(0, 1) ? "N" : "R") << "</returnflag>\n"
    << "      <linestatus>" << (rng->Int(0, 1) ? "O" : "F") << "</linestatus>\n"
    << "      <shipdate>199" << rng->Int(2, 8) << "-0" << rng->Int(1, 9) << "-1"
    << rng->Int(0, 9) << "</shipdate>\n"
    << "      <shipinstruct>INSTRUCT-" << rng->Int(0, 3) << "</shipinstruct>\n"
    << "      <shipmode>MODE-" << rng->Int(0, 6) << "</shipmode>\n"
    << "      <comment>" << Pick(rng, kComments) << "</comment>\n"
    << "    </lineitem>\n";
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  Rng rng(seed * 0x100000001b3ULL ^ (tag + 0x51ed27a3ULL));
  rng.Next();
  return rng.Next();
}

std::string BooksXml(int records, uint64_t seed) {
  Rng rng(seed);
  std::ostringstream out;
  out << "<bib>\n";
  for (int i = 0; i < records; ++i) {
    out << "  <book>\n    <title>" << Pick(&rng, kTitleWords) << " "
        << Pick(&rng, kTitleWords) << " " << i << "</title>\n";
    if (rng.Int(0, 3) != 0) {
      out << "    <author>" << Pick(&rng, kAuthors) << "</author>\n";
    }
    if (rng.Int(0, 9) != 0) {
      out << "    <publisher>Publisher-" << rng.Int(0, 7) << "</publisher>\n";
    }
    out << "    <year>" << rng.Int(1990, 2004) << "</year>\n";
    int64_t price = rng.Int(10, 150);
    out << "    <price>" << price << ".00</price>\n";
    if (rng.Int(0, 1) != 0) {
      out << "    <discount>" << rng.Int(1, price / 2) << ".00</discount>\n";
    }
    out << "  </book>\n";
  }
  out << "</bib>\n";
  return out.str();
}

std::string SalesXml(int records, uint64_t seed) {
  Rng rng(seed);
  std::ostringstream out;
  out << "<sales>\n";
  for (int i = 0; i < records; ++i) {
    const Region& region = Pick(&rng, kRegions);
    char timestamp[32];
    std::snprintf(timestamp, sizeof(timestamp),
                  "%04d-%02d-%02dT%02d:%02d:%02d",
                  static_cast<int>(rng.Int(2002, 2004)),
                  static_cast<int>(rng.Int(1, 12)),
                  static_cast<int>(rng.Int(1, 28)),
                  static_cast<int>(rng.Int(0, 23)),
                  static_cast<int>(rng.Int(0, 59)),
                  static_cast<int>(rng.Int(0, 59)));
    out << "  <sale>\n    <timestamp>" << timestamp << "</timestamp>\n"
        << "    <product>" << Pick(&rng, kProducts) << "</product>\n"
        << "    <state>" << region.states[rng.Int(0, region.count - 1)]
        << "</state>\n"
        << "    <region>" << region.name << "</region>\n"
        << "    <quantity>" << rng.Int(1, 50) << "</quantity>\n"
        << "    <price>" << Cents(rng.Int(199, 2999)) << "</price>\n"
        << "  </sale>\n";
  }
  out << "</sales>\n";
  return out.str();
}

std::string OrdersXml(int orders, uint64_t seed) {
  Rng rng(seed);
  std::ostringstream out;
  out << "<orders>\n";
  for (int i = 0; i < orders; ++i) {
    out << "  <order>\n    <orderkey>O-" << i + 1 << "</orderkey>\n"
        << "    <orderstatus>" << (rng.Int(0, 9) < 3 ? "F" : "O")
        << "</orderstatus>\n"
        << "    <orderdate>199" << rng.Int(2, 8) << "-0" << rng.Int(1, 9)
        << "-0" << rng.Int(1, 9) << "</orderdate>\n"
        << "    <customer>\n      <name>" << Pick(&rng, kCustomers)
        << "</name>\n      <custkey>C-" << rng.Int(1, 5000)
        << "</custkey>\n      <address>\n        <street>"
        << rng.Int(1, 9999) << " Market St</street>\n        <city>"
        << Pick(&rng, kCities) << "</city>\n      </address>\n"
        << "    </customer>\n";
    int lineitems = static_cast<int>(rng.Int(1, 7));
    for (int line = 1; line <= lineitems; ++line) Lineitem(out, &rng, line);
    out << "    <totalprice>" << rng.Int(100, 500000) << ".00</totalprice>\n"
        << "    <comment>" << Pick(&rng, kComments) << "</comment>\n"
        << "  </order>\n";
  }
  out << "</orders>\n";
  return out.str();
}

std::vector<CorpusDoc> CollectionCorpus(int docs, int records, uint64_t seed) {
  std::vector<CorpusDoc> corpus;
  corpus.reserve(static_cast<size_t>(docs) * 2);
  for (int d = 0; d < docs; ++d) {
    char uri[32];
    std::snprintf(uri, sizeof(uri), "books-%05d.xml", d);
    corpus.push_back({"books", uri, BooksXml(records, DeriveSeed(seed, 2 * d))});
    std::snprintf(uri, sizeof(uri), "sales-%05d.xml", d);
    corpus.push_back(
        {"sales", uri, SalesXml(records, DeriveSeed(seed, 2 * d + 1))});
  }
  return corpus;
}

}  // namespace perfbench

// xqa benchmark: drives QueryService from one process through one named
// workload, checks every result against an independent oracle, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output.
//
// Usage: xqa_perfbench --workload <dashboard|adhoc|ingest|report>
//                      --seed <n> --seconds <s> --trace <0|1>
//
// Every layer is measured from outside: the benchmark times its own calls
// into each layer's public functions. Nothing inside src/ is instrumented.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include "api/engine.h"
#include "binder/binder.h"
#include "corpus.h"
#include "measure.h"
#include "optimizer/rewriter.h"
#include "parser/parser.h"
#include "service/query_service.h"
#include "xml/xml_parser.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using xqa::DocumentPtr;
using xqa::Engine;
using xqa::ExecutionOptions;
using xqa::service::CollectionSnapshot;
using xqa::service::PlanCache;
using xqa::service::PlanHandle;
using xqa::service::QueryService;
using xqa::service::Request;
using xqa::service::Response;
using xqa::service::ServiceOptions;

// --- Clock and tracing ------------------------------------------------------

const auto kEpoch = std::chrono::steady_clock::now();

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Spans are recorded only while tracing is on. Each thread appends to its
/// own buffer; buffers are merged and written out when the run ends.
std::atomic<bool> g_tracing{false};
std::atomic<int64_t> g_next_request{0};

struct TraceBuffer {
  int64_t thread_index = 0;
  int64_t next_local = 0;
  int64_t request = 0;
  std::vector<int64_t> open;
  std::vector<Span> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<TraceBuffer>> g_buffers;

TraceBuffer& LocalBuffer() {
  thread_local TraceBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<TraceBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread_index = static_cast<int64_t>(g_buffers.size());
  }
  return *buffer;
}

/// RAII span around one call into a layer. A root span starts a new
/// request id; nested spans inherit the request and take the innermost open
/// span as parent.
class SpanScope {
 public:
  explicit SpanScope(const char* name, bool root = false)
      : active_(g_tracing.load(std::memory_order_relaxed)) {
    if (!active_) return;
    TraceBuffer& buffer = LocalBuffer();
    span_.name = name;
    span_.id = (buffer.thread_index << 40) | buffer.next_local++;
    if (root) buffer.request = ++g_next_request;
    span_.parent = root || buffer.open.empty() ? -1 : buffer.open.back();
    span_.request = buffer.request;
    buffer.open.push_back(span_.id);
    span_.start = Now();
  }
  ~SpanScope() {
    if (!active_) return;
    span_.end = Now();
    TraceBuffer& buffer = LocalBuffer();
    buffer.open.pop_back();
    buffer.spans.push_back(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const { return active_; }
  const Span& span() const { return span_; }

  /// A child span whose interval is known only afterwards (the service's
  /// queue and execution phases, from its Response).
  void AddChild(const char* name, double start, double end) {
    if (!active_) return;
    TraceBuffer& buffer = LocalBuffer();
    Span child;
    child.name = name;
    child.id = (buffer.thread_index << 40) | buffer.next_local++;
    child.parent = span_.id;
    child.request = span_.request;
    child.start = start;
    child.end = end;
    buffer.spans.push_back(child);
  }

 private:
  bool active_;
  Span span_;
};

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

// --- Workload definitions ---------------------------------------------------

/// One query text of a workload. `on_orders` runs it with the orders
/// document as context item; `shred` lists the (collection, record) domains
/// the optimizer marks for a shredded scan.
struct Query {
  std::string text;
  bool on_orders = false;
  std::vector<std::pair<std::string, std::string>> shred;
};

// Paper Q1 (Section 2) over the books collection; shreds.
const char* const kQ1 = R"(for $b in collection('books')//book
group by $b/publisher into $p, $b/year into $y
nest $b/price - $b/discount into $netprices
return
  <group>
    {$p, $y}
    <avg-net-price>{avg($netprices)}</avg-net-price>
  </group>)";

// Paper Q3: region/state rollup with a nested regroup over the sales
// collection; the outer scan shreds.
const char* const kQ3 = R"(for $s in collection('sales')//sale
group by $s/region into $region,
         year-from-dateTime($s/timestamp) into $year
nest $s into $region-sales
let $region-sum := round-half-to-even(sum( $region-sales/(quantity * price) ), 2)
order by $year, $region
return
  for $s in $region-sales
  group by $s/state into $state
  nest $s into $state-sales
  let $state-sum := round-half-to-even(sum( $state-sales/(quantity * price) ), 2)
  order by $state
  return
    <summary>
      <year>{$year}</year>{$region, $state}
      <state-sales>{ $state-sum }</state-sales>
      <region-sales>{ $region-sum }</region-sales>
      <state-percentage>
        { round-half-to-even($state-sum * 100 div $region-sum, 1) }
      </state-percentage>
    </summary>)";

// Table 1a/1b templates of Section 6 and the naive Table 1a formulation,
// which the group-by detection rewrites.
const char* const kTable1a =
    "for $litem in //order/lineitem group by $litem/shipmode into $a "
    "nest $litem into $items return <r>{$a, count($items)}</r>";
const char* const kTable1b =
    "for $litem in //order/lineitem group by $litem/shipinstruct into $a, "
    "$litem/shipmode into $b nest $litem into $items "
    "return <r>{$a, $b, count($items)}</r>";
const char* const kTable1aNaive =
    "for $a in distinct-values(//order/lineitem/shipmode) "
    "let $items := for $i in //order/lineitem where $i/shipmode = $a "
    "return $i return <r>{$a, count($items)}</r>";

// Per-document aggregations whose outer `for` over collection() runs as a
// partitioned scan across the shards.
const char* const kSalesPerDocument =
    "for $d in collection('sales') for $s in $d/sales/sale "
    "group by $s/product into $p nest $s/quantity into $q order by $p "
    "return <p>{$p}<sum>{sum($q)}</sum></p>";
const char* const kBooksPerDocument =
    "for $d in collection('books') let $b := $d/bib/book "
    "group by count($b[author]) into $n nest avg($b/price) into $avg "
    "order by $n return <n count=\"{$n}\">{round-half-to-even(avg($avg), 2)}</n>";

/// The fixed analytics mix. With `partitioned`, two partitioned-scan
/// aggregations join the five paper queries; the mix stays odd-sized so the
/// median and p90 fall inside one query's latencies, not between two.
std::vector<Query> AnalyticsMix(bool partitioned) {
  std::vector<Query> mix = {{kQ1, false, {{"books", "book"}}},
                            {kQ3, false, {{"sales", "sale"}}},
                            {kTable1a, true, {}},
                            {kTable1b, true, {}},
                            {kTable1aNaive, true, {}}};
  if (partitioned) {
    mix.push_back({kSalesPerDocument, false, {}});
    mix.push_back({kBooksPerDocument, false, {}});
  }
  return mix;
}

constexpr int kAdhocShapes = 9;

/// One adhoc text of the given shape, with keys and literals drawn from
/// `rng`.
Query AdhocText(int shape, Rng& rng) {
  const char* const keys[] = {"shipmode", "shipinstruct", "tax", "returnflag",
                              "linestatus"};
  const char* const values[] = {"quantity", "extendedprice", "discount",
                                "tax"};
  const char* const book_keys[] = {"publisher", "year"};
  auto key = [&] { return std::string(keys[rng.Int(0, 4)]); };
  auto value = [&] { return std::string(values[rng.Int(0, 3)]); };
  auto num = [&](int lo, int hi) { return std::to_string(rng.Int(lo, hi)); };
  Query q;
  q.on_orders = true;
  switch (shape) {
    case 0:  // group by + nest below a pushed-down where
      q.text = "for $l in //order/lineitem where $l/quantity > " +
               num(0, 49) + " group by $l/" + key() +
               " into $k nest $l/" + value() +
               " into $vs return <g>{$k}<n>{count($vs)}</n>"
               "<s>{sum($vs)}</s></g>";
      break;
    case 1: {  // nest order by
      std::string v = value();
      q.text = "for $l in //order/lineitem group by $l/" + key() +
               " into $k nest $l order by number($l/" + v +
               ") descending into $ls return <g>{$k}<top>{data($ls[" +
               num(1, 3) + "]/" + v + ")}</top><n>{count($ls[quantity > " +
               num(0, 49) + "])}</n></g>";
      break;
    }
    case 2:  // positional order by, removed by order-by elimination
      q.text = "for $o at $i in //order where $o/totalprice > " +
               num(0, 499) + "000 order by $i return <o>{$i}{data($o/"
               "orderkey)}</o>";
      break;
    case 3:  // return at over an ordered grouping
      q.text = "for $l in //order/lineitem group by $l/" + key() +
               " into $k nest $l into $ls order by $k return at $r "
               "<g rank=\"{$r}\">{$k}<n>{count($ls[quantity > " +
               num(0, 49) + "])}</n></g>";
      break;
    case 4: {  // naive self-join (Table 1a without group by)
      std::string k = key();
      q.text = "for $a in distinct-values(//order/lineitem/" + k +
               ") let $items := for $i in //order/lineitem where $i/" + k +
               " = $a return $i return <r>{$a, count($items[quantity > " +
               num(0, 49) + "])}</r>";
      break;
    }
    case 5:  // `using` equality
      q.text = "for $l in //order/lineitem group by $l/" + key() +
               " into $k using deep-equal nest $l into $ls return "
               "<g>{$k}<n>{count($ls[quantity > " +
               num(0, 49) + "])}</n></g>";
      break;
    case 6:  // plain where filter, pushed into the path scan
      q.text = "for $l in //order/lineitem where $l/" + value() +
               " >= " + num(1, 49) + " return <l>{data($l/partkey)}</l>";
      break;
    case 7:  // Q1 shape over the books collection, filtered
      q.on_orders = false;
      q.shred = {{"books", "book"}};
      q.text = "for $b in collection('books')//book where $b/year > " +
               num(1989, 2003) + " group by $b/" + book_keys[rng.Int(0, 1)] +
               " into $p nest $b/price - $b/discount into $net "
               "return <group>{$p}<avg>{avg($net)}</avg><n>{count($net[. > " +
               num(0, 99) + "])}</n></group>";
      break;
    default:  // Q3 shape over the sales collection, filtered
      q.on_orders = false;
      q.shred = {{"sales", "sale"}};
      q.text = "for $s in collection('sales')//sale where $s/quantity > " +
               num(0, 49) +
               " group by $s/region into $region nest $s into $rs "
               "order by $region return for $x in $rs group by $x/state "
               "into $st nest $x into $ss order by $st return "
               "<s>{$region, $st}<sum>{round-half-to-even(sum($ss/"
               "(quantity * price)), " + num(0, 3) + ")}</sum></s>";
      break;
  }
  return q;
}

/// The adhoc pool: `size` distinct texts, text i of shape i % kAdhocShapes.
/// Popularity rank i is text i, so every seed offers the same shapes at the
/// same ranks and the seed draws only keys and literals.
std::vector<Query> AdhocPool(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> pool;
  std::set<std::string> seen;
  for (size_t i = 0; i < size; ++i) {
    Query q;
    do {
      q = AdhocText(static_cast<int>(i % kAdhocShapes), rng);
    } while (!seen.insert(q.text).second);
    pool.push_back(std::move(q));
  }
  return pool;
}

/// Zipf(s = 1) sampler over ranks [0, n).
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) cdf_[i] = (total += 1.0 / static_cast<double>(i + 1));
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(Rng* rng) const {
    double u = rng->Unit();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Workload {
  const char* name;
  const char* why;
  int clients;         ///< closed-loop read clients
  int lanes;           ///< ExecutionOptions::num_threads per request
  int docs;            ///< documents per collection (books and sales)
  int records;         ///< records per document
  int orders;          ///< orders in the context document (0 = none)
  int adhoc_pool;      ///< > 0: Zipf-drawn pool of this many texts
  double write_rate;   ///< > 0: open-loop writer at this many writes/s
};

/// With a writer, the same readers run untimed beside this many writes,
/// spread over this many seconds, before the measurement starts: read
/// latency rose by about half over the first 4000 or so writes after
/// set-up, then held level.
constexpr size_t kWarmupWrites = 4000;
constexpr double kWarmupSeconds = 5.0;

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::optional<Workload> FindWorkload(const std::string& name, int nproc) {
  const Workload workloads[] = {
      {"dashboard",
       "warm repeated group-by analytics: plan cache and shred tables always "
       "hit, time goes to eval, indexes and serialization",
       nproc, 1, 200, 50, 2000, 0, 0.0},
      {"adhoc",
       "Zipf-drawn texts from a pool 4x the plan cache: parser, optimizer, "
       "binder and cache misses/evictions dominate",
       nproc, 1, 32, 20, 50, 1024, 0.0},
      {"ingest",
       "durable fsync-always writes beside 2 readers: journal, checkpoint, "
       "recovery, snapshot and shred rebuilds",
       2, 1, 200, 20, 0, 0, 200.0},
      // nproc / 2 lanes, not nproc: with every vCPU in one parallel section,
      // a lane slowed by a co-tenant holds the whole barrier, and the
      // run-to-run spread of this workload's latency was about three times
      // what it is at nproc / 2.
      {"report",
       "one heavy query at a time with nproc/2 lanes over a 4x corpus and E3 "
       "orders: parallel scans and group formation",
       1, std::max(2, nproc / 2), 800, 50, 8000, 0, 0.0},
  };
  for (const Workload& w : workloads) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

// --- Per-run state ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What the benchmark acknowledged to have written, for the restart check.
struct Ledger {
  std::mutex mutex;
  std::map<std::pair<std::string, std::string>, std::string> live;  // -> xml
  std::set<std::pair<std::string, std::string>> removed;
  double user_bytes = 0.0;  ///< XML bytes of every acknowledged Put
};

/// Counters summed over the requests of the traced half.
struct Tally {
  int64_t requests = 0;  ///< requests with QueryStats
  int64_t tuples = 0, groups = 0, hash_probes = 0, linear_compares = 0;
  int64_t batches = 0, batch_rows = 0, index_scans = 0, fallback_walk_nodes = 0;
  int64_t collection_docs = 0, order_by_elided = 0;
  int64_t shred_scans = 0, shred_rows = 0, shred_fallbacks = 0;
  int64_t result_bytes = 0, results = 0;
  int64_t compiles = 0, rules_fired = 0;
  int64_t snapshot_calls = 0, snapshot_reuses = 0;
  double cpu_seconds = 0.0, lane_seconds = 0.0;

  void AddStats(const xqa::QueryStats& s) {
    ++requests;
    tuples += s.tuples_flowed;
    groups += s.TotalGroupsFormed();
    hash_probes += s.TotalHashProbes();
    for (const auto& clause : s.clauses) linear_compares += clause.linear_scan_compares;
    batches += s.batches_emitted;
    batch_rows += s.batch_rows_emitted;
    index_scans += s.index_scans;
    fallback_walk_nodes += s.fallback_walk_nodes;
    collection_docs += s.collection_docs;
    order_by_elided += s.order_by_elided;
    shred_scans += s.shredded_scans;
    shred_rows += s.shredded_rows;
    shred_fallbacks += s.shred_fallbacks;
  }
  void Merge(const Tally& o) {
    requests += o.requests;
    tuples += o.tuples; groups += o.groups; hash_probes += o.hash_probes;
    linear_compares += o.linear_compares; batches += o.batches;
    batch_rows += o.batch_rows; index_scans += o.index_scans;
    fallback_walk_nodes += o.fallback_walk_nodes;
    collection_docs += o.collection_docs; order_by_elided += o.order_by_elided;
    shred_scans += o.shred_scans; shred_rows += o.shred_rows;
    shred_fallbacks += o.shred_fallbacks; result_bytes += o.result_bytes;
    results += o.results; compiles += o.compiles; rules_fired += o.rules_fired;
    snapshot_calls += o.snapshot_calls; snapshot_reuses += o.snapshot_reuses;
    cpu_seconds += o.cpu_seconds; lane_seconds += o.lane_seconds;
  }
};

/// One completed (or failed) read.
struct Sample {
  double done = 0.0;     ///< completion time
  double latency = 0.0;  ///< seconds; +inf when the request failed
  bool traced = false;
  size_t query = 0;      ///< index into the workload's texts
};

struct ClientOut {
  std::vector<Sample> samples;
  int64_t attempted = 0, failed = 0, mismatched = 0;
  std::string first_error;
  Tally tally;
};

class Bench {
 public:
  Bench(const Args& args, Workload workload, int nproc)
      : args_(args), w_(workload), nproc_(nproc) {}

  int Run();

 private:
  // Set-up.
  std::vector<Query> QueriesForSetup();
  double SetupOnce(const std::string& dir);
  void LoadCorpus(const std::vector<CorpusDoc>& docs);
  void WarmShredTables(const std::vector<Query>& queries);
  void ComputeReferences(const std::vector<Query>& queries);
  std::string Reference(const Query& q) const;

  // Reads.
  void ReadClient(int client, double until, double min_until, ClientOut* out);
  bool ServiceRead(const Query& q, ClientOut* out, std::string* result);
  bool ReplayRead(const Query& q, ClientOut* out, std::string* result);
  const Query& Pick(Rng* rng, size_t* cursor) const;
  Request MakeRequest(const Query& q) const;

  // Writes (ingest).
  struct WriteOp {
    bool remove = false;
    std::string collection, uri, xml;
  };
  std::vector<WriteOp> PlanWrites(size_t count);
  void Checkpoint();
  void Writer(const std::vector<WriteOp>& ops, double begin, double start,
              double until);
  bool Put(const std::string& collection, const std::string& uri,
           const std::string& xml, double due, bool timed = true);

  // Restart and durability.
  bool RestartAndVerify(std::string* error);
  std::unique_ptr<QueryService> OpenService(const std::string& dir,
                                            xqa::FsyncPolicy fsync) const;
  void AddStorageCounters();

  void ShredFind(const CollectionSnapshot& snapshot, const std::string& coll,
                 const std::string& record);
  void Emit(bool correct, int64_t attempted, int64_t failed);

  const Args& args_;
  const Workload w_;
  const int nproc_;

  std::string out_dir_;
  std::string data_dir_;
  std::unique_ptr<QueryService> service_;
  DocumentPtr orders_doc_;
  std::vector<Query> queries_;
  std::unique_ptr<Zipf> zipf_;
  std::map<std::string, std::string> reference_;
  Ledger ledger_;

  // Replay path: the benchmark's own plan cache and engine, configured like
  // the service's, so the layer calls match what a request does inside.
  std::unique_ptr<PlanCache> replay_cache_;
  Engine engine_;

  std::mutex shred_mutex_;
  std::set<std::tuple<uint64_t, std::string, std::string>> shred_seen_;
  std::atomic<uint64_t> last_snapshot_version_{~0ULL};

  std::mutex writes_mutex_;
  std::vector<double> put_latencies_;   // seconds, from due time
  std::vector<double> writer_lag_;      // seconds late at start
  double journal_bytes_checkpointed_ = 0.0;  ///< journal bytes retired by checkpoints
  int64_t journal_appends_ = 0;  ///< over the service instances of the run
  int64_t checkpoints_ = 0;
  size_t recover_count_ = 0;
  int64_t write_attempted_ = 0, write_failed_ = 0;

  // Results, filled as the run proceeds.
  std::map<std::string, std::pair<double, std::string>> metrics_;  // name -> (value, unit)
  std::vector<std::string> info_;
};

void Metric(std::map<std::string, std::pair<double, std::string>>* m,
            const std::string& name, double value, const std::string& unit) {
  (*m)[name] = {value, unit};
}

void FsyncFiles(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
}

std::unique_ptr<QueryService> Bench::OpenService(const std::string& dir,
                                                xqa::FsyncPolicy fsync) const {
  ServiceOptions options;
  options.worker_threads = nproc_;
  options.data_dir = dir;
  options.storage_fsync = fsync;
  return std::make_unique<QueryService>(options);
}

void Bench::ShredFind(const CollectionSnapshot& snapshot,
                      const std::string& coll, const std::string& record) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(shred_mutex_);
    first = shred_seen_.insert({snapshot.version(), coll, record}).second;
  }
  // The first call per corpus version builds the column table (unless a
  // concurrent request built it already); later calls hit the catalog.
  SpanScope span(first ? "shred.build" : "shred.find");
  snapshot.FindShreddedTable(coll, record, xqa::ShredBuildContext{});
}

void Bench::LoadCorpus(const std::vector<CorpusDoc>& docs) {
  for (const CorpusDoc& doc : docs) {
    if (!Put(doc.collection, doc.uri, doc.xml, Now())) {
      throw std::runtime_error("set-up could not load " + doc.uri);
    }
  }
}

bool Bench::Put(const std::string& collection, const std::string& uri,
                const std::string& xml, double due, bool timed) {
  bool ok = true;
  try {
    DocumentPtr doc;
    {
      SpanScope span("xml.parse");
      doc = xqa::ParseXml(xml);
    }
    SpanScope span("store.put");
    service_->collections().Put(collection, uri, std::move(doc));
  } catch (const std::exception&) {
    ok = false;
  }
  double latency = Now() - due;
  std::lock_guard<std::mutex> lock(writes_mutex_);
  ++write_attempted_;
  if (!ok) {
    ++write_failed_;
    if (timed) put_latencies_.push_back(INFINITY);
    return false;
  }
  if (timed) put_latencies_.push_back(latency);
  std::lock_guard<std::mutex> ledger(ledger_.mutex);
  ledger_.live[{collection, uri}] = xml;
  ledger_.removed.erase({collection, uri});
  ledger_.user_bytes += static_cast<double>(xml.size());
  return true;
}

void Bench::WarmShredTables(const std::vector<Query>& queries) {
  auto snapshot = service_->collections().Snapshot();
  std::set<std::pair<std::string, std::string>> done;
  for (const Query& q : queries) {
    for (const auto& domain : q.shred) {
      if (done.insert(domain).second) {
        ShredFind(*snapshot, domain.first, domain.second);
      }
    }
  }
}

std::vector<Query> Bench::QueriesForSetup() {
  if (w_.adhoc_pool > 0) {
    std::vector<Query> pool = AdhocPool(static_cast<size_t>(w_.adhoc_pool),
                                        DeriveSeed(args_.seed, 101));
    zipf_ = std::make_unique<Zipf>(pool.size());
    return pool;
  }
  // Three texts, not two, so the median falls inside one text's latencies
  // rather than in the gap between the two.
  if (w_.orders == 0) {
    return {{kQ1, false, {{"books", "book"}}},
            {kQ3, false, {{"sales", "sale"}}},
            {kBooksPerDocument, false, {}}};
  }
  return AnalyticsMix(/*partitioned=*/w_.lanes > 1);
}

/// One complete set-up: generate the inputs, open a durable service on an
/// empty data_dir, load the corpus one document at a time, checkpoint, and
/// warm the plan cache and shred tables. Returns the load phase's seconds.
double Bench::SetupOnce(const std::string& dir) {
  service_.reset();
  orders_doc_ = nullptr;
  fs::remove_all(dir);
  {
    std::lock_guard<std::mutex> lock(ledger_.mutex);
    ledger_.live.clear();
    ledger_.removed.clear();
    ledger_.user_bytes = 0.0;
  }
  {
    // Each set-up's fresh service counts versions from zero again.
    std::lock_guard<std::mutex> lock(shred_mutex_);
    shred_seen_.clear();
  }
  journal_bytes_checkpointed_ = 0.0;
  journal_appends_ = 0;
  checkpoints_ = 0;
  std::vector<CorpusDoc> corpus =
      CollectionCorpus(w_.docs, w_.records, DeriveSeed(args_.seed, 1));
  std::string orders_xml =
      w_.orders > 0 ? OrdersXml(w_.orders, DeriveSeed(args_.seed, 2)) : "";
  queries_ = QueriesForSetup();

  // Seed the corpus as a bulk load (fsync off), then serve it from a
  // service reopened on the checkpoint with fsync on every write.
  service_ = OpenService(dir, xqa::FsyncPolicy::kNever);
  double load_start = Now();
  LoadCorpus(corpus);
  double load_seconds = Now() - load_start;
  Checkpoint();
  AddStorageCounters();
  service_.reset();
  // Flush the seeded files now, so the kernel's writeback of them does not
  // run in the background of the measured phase.
  FsyncFiles(dir);
  service_ = OpenService(dir, xqa::FsyncPolicy::kAlways);
  if (!orders_xml.empty()) {
    orders_doc_ = xqa::ParseXml(orders_xml);
    service_->documents().Put("orders", orders_doc_);
  }
  WarmShredTables(queries_);
  // Warm the plan cache: every fixed text, or the 256 most popular texts of
  // the adhoc pool (what a long-running service would hold).
  size_t warm = w_.adhoc_pool > 0 ? std::min<size_t>(256, queries_.size())
                                  : queries_.size();
  for (size_t i = 0; i < warm; ++i) {
    service_->Execute(MakeRequest(queries_[i]));
  }
  return load_seconds;
}

Request Bench::MakeRequest(const Query& q) const {
  Request request;
  request.query = q.text;
  request.document = q.on_orders ? "orders" : "";
  request.provide_collections = true;
  request.collect_stats = g_tracing.load(std::memory_order_relaxed);
  ExecutionOptions exec;
  exec.num_threads = w_.lanes;
  request.exec = exec;
  return request;
}

/// The oracle: the simplest configuration of the engine — every optimizer
/// rule off, scalar tuple-at-a-time FLWOR, no shredded scan, no structural
/// index, one thread — run directly, outside the service.
std::string Bench::Reference(const Query& q) const {
  xqa::OptimizerOptions off;
  off.detect_groupby_patterns = false;
  off.push_predicates = false;
  off.eliminate_order_by = false;
  off.mark_shredded_scans = false;
  off.fold_constants = false;
  Engine::Options options;
  options.optimizer = off;
  Engine reference(options);
  ExecutionOptions exec;
  exec.num_threads = 1;
  exec.use_structural_index = false;
  exec.use_batched_execution = false;
  exec.use_shredded_scan = false;
  auto snapshot = service_->collections().Snapshot();
  return reference.Compile(q.text).ExecuteToString(
      q.on_orders ? orders_doc_ : DocumentPtr(), nullptr, snapshot.get(), exec);
}

void Bench::ComputeReferences(const std::vector<Query>& queries) {
  reference_.clear();
  for (const Query& q : queries) reference_[q.text] = Reference(q);
}

const Query& Bench::Pick(Rng* rng, size_t* cursor) const {
  if (zipf_ != nullptr) return queries_[zipf_->Draw(rng)];
  return queries_[(*cursor)++ % queries_.size()];
}

bool Bench::ServiceRead(const Query& q, ClientOut* out, std::string* result) {
  SpanScope root("service.request", /*root=*/true);
  Response response = service_->Submit(MakeRequest(q)).get();
  if (root.active()) {
    double start = root.span().start;
    double now = Now();
    double queued = std::min(start + response.queue_seconds, now);
    root.AddChild("service.queue", start, queued);
    root.AddChild("service.exec", queued,
                  std::min(queued + response.exec_seconds, now));
    if (response.status.ok()) {
      out->tally.AddStats(response.stats);
      out->tally.result_bytes += static_cast<int64_t>(response.result.size());
      ++out->tally.results;
    }
  }
  if (!response.status.ok()) {
    if (out->first_error.empty()) out->first_error = response.status.ToString();
    return false;
  }
  *result = std::move(response.result);
  return true;
}

/// The traced replay of one request: the calls the service makes inside a
/// request — snapshot, plan-cache lookup, execution, serialization — made
/// by the benchmark itself so each can be timed. A plan-cache miss also
/// compiles the text once more through ParseQuery → OptimizeModule →
/// BindModule and once through Engine::Compile, to split compile time.
bool Bench::ReplayRead(const Query& q, ClientOut* out, std::string* result) {
  SpanScope root("replay.request", /*root=*/true);
  try {
    ExecutionOptions exec;
    exec.num_threads = w_.lanes;
    std::shared_ptr<const CollectionSnapshot> snapshot;
    {
      SpanScope span("store.snapshot");
      snapshot = service_->collections().Snapshot();
    }
    ++out->tally.snapshot_calls;
    if (last_snapshot_version_.exchange(snapshot->version()) == snapshot->version()) {
      ++out->tally.snapshot_reuses;
    }
    DocumentPtr doc = q.on_orders ? service_->documents().Get("orders") : nullptr;
    PlanHandle plan;
    bool hit = false;
    {
      SpanScope span("plan_cache.get");
      plan = replay_cache_->GetOrCompile(engine_, q.text, exec, &hit);
    }
    if (!hit) {
      xqa::ModulePtr module;
      {
        SpanScope span("parser.parse");
        module = xqa::ParseQuery(q.text);
      }
      {
        SpanScope span("optimizer.rewrite");
        out->tally.rules_fired +=
            xqa::OptimizeModule(module.get(), engine_.options().optimizer).total();
      }
      {
        SpanScope span("binder.bind");
        xqa::BindModule(module.get());
      }
      {
        SpanScope span("api.compile");
        engine_.Compile(q.text);
      }
      ++out->tally.compiles;
    }
    for (const auto& domain : q.shred) ShredFind(*snapshot, domain.first, domain.second);
    xqa::ProfiledResult profiled;
    {
      SpanScope span("eval.execute");
      // With one lane the query runs on this thread; with several, only this
      // client runs (report has one), so process CPU time is the lanes'.
      double wall = Now();
      double cpu = w_.lanes == 1 ? ThreadCpuSeconds() : ProcessCpuSeconds();
      profiled = plan->ExecuteProfiled(doc, nullptr, snapshot.get(), exec);
      double cpu_end = w_.lanes == 1 ? ThreadCpuSeconds() : ProcessCpuSeconds();
      out->tally.cpu_seconds += cpu_end - cpu;
      out->tally.lane_seconds += (Now() - wall) * w_.lanes;
    }
    {
      SpanScope span("xml.serialize");
      *result = xqa::SerializeSequence(profiled.sequence, xqa::SerializeOptions{});
    }
    out->tally.AddStats(profiled.stats);
    out->tally.result_bytes += static_cast<int64_t>(result->size());
    ++out->tally.results;
    return true;
  } catch (const std::exception& e) {
    if (out->first_error.empty()) out->first_error = e.what();
    return false;
  }
}

/// Closed loop: the next request leaves only when the previous one is done.
/// Runs until `until`, and past it until `min_until` while the client has
/// fewer than its share of the 100 samples a p90 needs.
void Bench::ReadClient(int client, double until, double min_until,
                       ClientOut* out) {
  Rng rng(DeriveSeed(args_.seed, 1000 + static_cast<uint64_t>(client)));
  size_t cursor = static_cast<size_t>(client);
  const size_t min_samples = static_cast<size_t>(100 / w_.clients + 1);
  int64_t i = 0;
  while (true) {
    double now = Now();
    if (now >= min_until) break;
    if (now >= until && out->samples.size() >= min_samples) break;
    const Query& q = Pick(&rng, &cursor);
    size_t query = static_cast<size_t>(&q - queries_.data());
    bool traced = g_tracing.load(std::memory_order_relaxed);
    std::string result;
    double start = Now();
    // Traced runs alternate the real service call with the layer replay, so
    // the offered load stays that of one request at a time per client.
    bool ok = traced && (i++ % 2 == 1) ? ReplayRead(q, out, &result)
                                       : ServiceRead(q, out, &result);
    double done = Now();
    ++out->attempted;
    if (!ok) {
      ++out->failed;
      out->samples.push_back({done, INFINITY, traced, query});
      continue;
    }
    out->samples.push_back({done, done - start, traced, query});
    if (w_.write_rate <= 0.0) {
      auto it = reference_.find(q.text);
      if (it == reference_.end() || it->second != result) {
        ++out->mismatched;
        if (out->first_error.empty()) {
          out->first_error = "result differs from the reference for: " + q.text;
        }
      }
    }
  }
}

std::vector<Bench::WriteOp> Bench::PlanWrites(size_t count) {
  Rng rng(DeriveSeed(args_.seed, 3));
  std::map<std::string, std::vector<std::string>> live;
  for (const auto& [key, xml] : ledger_.live) live[key.first].push_back(key.second);
  const size_t size = static_cast<size_t>(w_.docs);
  std::vector<WriteOp> ops;
  ops.reserve(count);
  int next_id = w_.docs;
  for (size_t i = 0; i < count; ++i) {
    WriteOp op;
    op.collection = i % 2 == 0 ? "books" : "sales";
    std::vector<std::string>& uris = live[op.collection];
    double u = rng.Unit();
    uint64_t content_seed = DeriveSeed(args_.seed, 10000 + i);
    auto content = [&] {
      return op.collection == "books" ? BooksXml(w_.records, content_seed)
                                      : SalesXml(w_.records, content_seed);
    };
    // Three writes in ten add or remove a document, in turn per
    // collection, so each collection keeps `size` or `size + 1` documents
    // and read latency does not grow with the length of the run.
    if (u < 0.3 && uris.size() > size) {  // remove
      size_t at = static_cast<size_t>(rng.Int(0, static_cast<int64_t>(uris.size()) - 1));
      op.remove = true;
      op.uri = uris[at];
      uris.erase(uris.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (u < 0.3) {  // put a new document
      char uri[48];
      std::snprintf(uri, sizeof(uri), "%s-new-%06d.xml", op.collection.c_str(), next_id++);
      op.uri = uri;
      op.xml = content();
      uris.push_back(op.uri);
    } else {  // replace an existing document
      op.uri = uris[static_cast<size_t>(rng.Int(0, static_cast<int64_t>(uris.size()) - 1))];
      op.xml = content();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Open loop: the first kWarmupWrites writes are due evenly over the
/// untimed warm-up [begin, start), and write kWarmupWrites + i is due at
/// start + i / w_.write_rate. A write is due then whether or not earlier
/// writes have finished, and its latency runs from its due time, so a stall
/// also counts against the writes queued behind it. A checkpoint runs inline
/// every 250 writes, offset by half a period so that a run of a whole number
/// of periods ends with the same 125 writes in the journal for recovery to
/// replay.
void Bench::Writer(const std::vector<WriteOp>& ops, double begin, double start,
                   double until) {
  constexpr size_t kCheckpointEvery = 250;
  for (size_t i = 0; i < ops.size(); ++i) {
    double due = i < kWarmupWrites
                     ? begin + (start - begin) * static_cast<double>(i) / kWarmupWrites
                     : start + static_cast<double>(i - kWarmupWrites) / w_.write_rate;
    if (due >= until) break;
    double now = Now();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
    }
    bool timed = due >= start;
    if (timed) writer_lag_.push_back(std::max(0.0, Now() - due));
    const WriteOp& op = ops[i];
    if (op.remove) {
      bool ok = true;
      try {
        SpanScope span("store.remove");
        service_->collections().Remove(op.collection, op.uri);
      } catch (const std::exception&) {
        ok = false;
      }
      std::lock_guard<std::mutex> lock(writes_mutex_);
      ++write_attempted_;
      if (!ok) {
        ++write_failed_;
      } else {
        std::lock_guard<std::mutex> ledger(ledger_.mutex);
        ledger_.live.erase({op.collection, op.uri});
        ledger_.removed.insert({op.collection, op.uri});
      }
    } else {
      Put(op.collection, op.uri, op.xml, due, timed);
    }
    if ((i + 1 + kCheckpointEvery / 2) % kCheckpointEvery == 0) Checkpoint();
  }
}

double JournalBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("journal-", 0) == 0) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

void Bench::Checkpoint() {
  journal_bytes_checkpointed_ += JournalBytes(data_dir_);
  SpanScope span("storage.checkpoint");
  service_->CheckpointStorage();
}

int64_t JsonInt(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return 0;
  return std::atoll(json.c_str() + at + key.size() + 4);
}

/// Adds the storage layer's own counters of the current service instance
/// (from its StatsJson) before the instance is closed.
void Bench::AddStorageCounters() {
  std::string stats = service_->storage()->StatsJson();
  journal_appends_ += JsonInt(stats, "journal_appends");
  checkpoints_ += JsonInt(stats, "checkpoints");
}

double DirBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

std::string SerializeDocument(const DocumentPtr& doc) {
  xqa::Sequence sequence;
  sequence.emplace_back(doc->root(), doc);
  return xqa::SerializeSequence(sequence);
}

/// Stops the service, reopens it on the same data_dir, and checks that the
/// recovered corpus is exactly what was acknowledged.
bool Bench::RestartAndVerify(std::string* error) {
  uint64_t version = service_->collections().version();
  AddStorageCounters();
  double live_bytes = 0.0;
  for (const auto& [key, xml] : ledger_.live) live_bytes += static_cast<double>(xml.size());
  double disk_bytes = DirBytes(data_dir_);
  Metric(&metrics_, "space_amp", Ratio(disk_bytes, live_bytes), "ratio");
  Metric(&metrics_, "storage.journal_appends", static_cast<double>(journal_appends_), "count");
  Metric(&metrics_, "storage.checkpoints", static_cast<double>(checkpoints_), "count");
  double journal_bytes = journal_bytes_checkpointed_ + JournalBytes(data_dir_);
  // Journal bytes since the last set-up began, over the XML bytes of every
  // Put acknowledged in that time (base: user bytes).
  Metric(&metrics_, "storage.journal_bytes_per_user_byte",
         Ratio(journal_bytes, ledger_.user_bytes), "ratio");

  std::vector<double> recover;
  size_t replayed = 0;
  // At least nine reopens and half a second of them, so a small corpus's
  // millisecond recovery is a median of many.
  for (double spent = 0.0; recover.size() < 9 || (spent < 0.5 && recover.size() < 99);
       spent += recover.back()) {
    service_.reset();
    SpanScope span("storage.recover");
    double start = Now();
    service_ = OpenService(data_dir_, xqa::FsyncPolicy::kAlways);
    recover.push_back(Now() - start);
    replayed = service_->storage_recovery().journal_records_applied;
  }
  Metric(&metrics_, "recover_s", Percentile(recover, 50), "s");
  recover_count_ = recover.size();
  Metric(&metrics_, "storage.records_replayed", static_cast<double>(replayed), "count");

  if (service_->collections().version() != version) {
    *error = "recovered corpus version " +
             std::to_string(service_->collections().version()) +
             " != acknowledged version " + std::to_string(version);
    return false;
  }
  for (const auto& [key, xml] : ledger_.live) {
    DocumentPtr doc = service_->collections().Get(key.first, key.second);
    if (doc == nullptr || SerializeDocument(doc) != SerializeDocument(xqa::ParseXml(xml))) {
      *error = "acknowledged put not recovered byte-identical: " + key.second;
      return false;
    }
  }
  for (const auto& key : ledger_.removed) {
    if (service_->collections().Get(key.first, key.second) != nullptr) {
      *error = "acknowledged remove came back: " + key.second;
      return false;
    }
  }
  xqa::storage::ScrubReport scrub = service_->ScrubStorage();
  if (!scrub.clean()) {
    *error = "scrub after recovery is not clean";
    return false;
  }
  if (orders_doc_ != nullptr) service_->documents().Put("orders", orders_doc_);
  // Results over the recovered corpus match the oracle run on that corpus.
  // Cross-document order follows document creation, which recovery redoes
  // in segment order, so results may legitimately differ from before the
  // restart; how many do is reported, not failed.
  size_t checks = std::min<size_t>(queries_.size(), 32);
  size_t changed = 0;
  for (size_t i = 0; i < checks; ++i) {
    const Query& q = queries_[i * queries_.size() / checks];
    std::string expected = Reference(q);
    if (expected != reference_[q.text]) ++changed;
    Response response = service_->Execute(MakeRequest(q));
    if (!response.status.ok() || response.result != expected) {
      *error = "after recovery, result differs from the reference for: " + q.text;
      return false;
    }
  }
  info_.push_back("# restart: " + std::to_string(changed) + " of " +
                  std::to_string(checks) +
                  " checked texts give other bytes than before the restart");
  return true;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

void Bench::Emit(bool correct, int64_t attempted, int64_t failed) {
  // Every line but the last is for people; the last is the result object.
  for (const std::string& line : info_) std::printf("%s\n", line.c_str());
  static const char* const kEndToEnd[] = {
      "setup_s", "query_p50_ms", "query_p90_ms", "throughput_qps",
      "peak_rss_mb", "space_amp"};
  static const char* const kPerLayer[] = {
      "service.queue_ms", "service.exec_ms", "service.self_ms",
      "plan_cache.hit_ratio", "plan_cache.evictions", "plan_cache.get_us",
      "parser.parse_us", "optimizer.rewrite_us", "optimizer.rules_fired",
      "binder.bind_us", "api.compile_us", "eval.execute_ms", "eval.tuples",
      "eval.groups", "eval.hash_probes", "eval.linear_compares",
      "eval.batch_fill", "eval.index_scans", "eval.fallback_walk_nodes",
      "eval.collection_docs", "eval.order_by_elided", "pool.lane_busy_ratio",
      "shred.scans", "shred.rows", "shred.fallbacks", "shred.hit_ratio",
      "shred.build_ms", "store.snapshot_us", "store.snapshot_reuse_ratio",
      "store.put_ms", "storage.journal_appends",
      "storage.journal_bytes_per_user_byte", "storage.checkpoint_ms",
      "storage.checkpoints", "storage.records_replayed", "xml.parse_ms",
      "xml.serialize_us", "xml.result_bytes", "trace.overhead_frac"};
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto add = [&](const char* name) {
    auto it = metrics_.find(name);
    double value = it == metrics_.end() ? 0.0 : it->second.first;
    std::string unit = it == metrics_.end() ? "count" : it->second.second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (args_.trace) {
    for (const char* name : kPerLayer) add(name);
  } else {
    for (const char* name : kEndToEnd) add(name);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  out_dir_ = ".bench_out";
  fs::create_directories(out_dir_);
  data_dir_ = out_dir_ + "/data-" + w_.name + "-" + std::to_string(getpid());
  g_tracing = args_.trace;
  replay_cache_ = std::make_unique<PlanCache>();

  char line[512];
  std::snprintf(line, sizeof(line),
                "# xqa perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%d compiler=\"%s\" build=%s fsync=always (seeding: never)",
                w_.name, static_cast<unsigned long long>(args_.seed),
                args_.seconds, args_.trace ? 1 : 0, nproc_, PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE);
  info_.push_back(line);
  info_.push_back(std::string("# why: ") + w_.why);

  // Set-up, three times; the median is setup_s and the last one is kept.
  constexpr int kSetups = 3;
  std::vector<double> setup_seconds, load_rates;
  size_t loaded_docs = static_cast<size_t>(w_.docs) * 2;
  for (int i = 0; i < kSetups; ++i) {
    double start = Now();
    double load = SetupOnce(data_dir_);
    setup_seconds.push_back(Now() - start);
    load_rates.push_back(static_cast<double>(loaded_docs) / load);
  }
  Metric(&metrics_, "setup_s", Percentile(setup_seconds, 50), "s");
  Metric(&metrics_, "ingest_docs_per_s", Percentile(load_rates, 50), "docs/s");

  bool ingest = w_.write_rate > 0.0;
  if (!ingest) ComputeReferences(queries_);
  // Set-up's own writes are not the measured writes of the ingest workload;
  // elsewhere the load phase's puts are the only ones.
  if (ingest) put_latencies_.clear();
  write_attempted_ = 0;
  write_failed_ = 0;

  // Measurement, after the ingest warm-up. With --trace 1 the first half
  // runs untraced and the second traced, so the throughput difference is the
  // tracing overhead.
  std::vector<WriteOp> ops;
  if (ingest) {
    ops = PlanWrites(kWarmupWrites + static_cast<size_t>(w_.write_rate * args_.seconds) + 1);
  }
  PlanCache::Counters cache_before = service_->plan_cache_counters();
  double begin = Now();
  double start = begin + (ingest ? kWarmupSeconds : 0.0);
  double end = start + args_.seconds;
  double mid = args_.trace ? start + args_.seconds / 2 : end;
  g_tracing = false;
  std::vector<ClientOut> outs(static_cast<size_t>(w_.clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < w_.clients; ++c) {
    threads.emplace_back([this, c, end, &outs] {
      ReadClient(c, end, end + 2 * args_.seconds, &outs[static_cast<size_t>(c)]);
    });
  }
  std::thread writer;
  if (ingest) {
    writer = std::thread([this, &ops, begin, start, end] { Writer(ops, begin, start, end); });
  }
  if (args_.trace) {
    std::this_thread::sleep_for(std::chrono::duration<double>(mid - Now()));
    cache_before = service_->plan_cache_counters();
    g_tracing = true;
  }
  for (std::thread& t : threads) t.join();
  if (writer.joinable()) writer.join();
  double stop = Now();
  PlanCache::Counters cache_after = service_->plan_cache_counters();

  ClientOut all;
  for (ClientOut& out : outs) {
    // Reads that ended in the warm-up count as attempted, but are not timed.
    for (const Sample& s : out.samples) {
      if (s.done >= start) all.samples.push_back(s);
    }
    all.attempted += out.attempted;
    all.failed += out.failed;
    all.mismatched += out.mismatched;
    if (all.first_error.empty()) all.first_error = out.first_error;
    all.tally.Merge(out.tally);
  }

  // The ingest oracle runs on the final corpus, once the writer has stopped.
  bool correct = all.mismatched == 0;
  std::string error = all.first_error;
  if (ingest) {
    ComputeReferences(queries_);
    for (const Query& q : queries_) {
      Response response = service_->Execute(MakeRequest(q));
      if (!response.status.ok() || response.result != reference_[q.text]) {
        correct = false;
        error = "final-corpus result differs from the reference for: " + q.text;
      }
    }
  }

  // End-to-end read metrics over the measured window (untraced samples).
  std::vector<double> latencies_ms;
  int64_t completed_untraced = 0, completed_traced = 0;
  for (const Sample& s : all.samples) {
    if (!s.traced) latencies_ms.push_back(s.latency * 1e3);
    if (std::isfinite(s.latency)) {
      if (s.traced) {
        ++completed_traced;
      } else {
        ++completed_untraced;
      }
    }
  }
  // Throughput is the median over five equal windows of the untraced part,
  // so one stall of the host does not move the whole run's figure.
  double untraced_window = (args_.trace ? mid : stop) - start;
  constexpr int kWindows = 5;
  std::vector<double> window_qps(kWindows, 0.0);
  for (const Sample& s : all.samples) {
    if (s.traced || !std::isfinite(s.latency)) continue;
    int k = static_cast<int>((s.done - start) / untraced_window * kWindows);
    window_qps[static_cast<size_t>(std::clamp(k, 0, kWindows - 1))] +=
        kWindows / untraced_window;
  }
  double untraced_qps = Percentile(window_qps, 50);
  Metric(&metrics_, "query_p50_ms", Percentile(latencies_ms, 50), "ms");
  Metric(&metrics_, "query_p90_ms", Percentile(latencies_ms, 90), "ms");
  Metric(&metrics_, "throughput_qps", untraced_qps, "1/s");
  if (args_.trace) {
    double traced_qps = completed_traced / std::max(stop - mid, 1e-9);
    Metric(&metrics_, "trace.overhead_frac", 1.0 - Ratio(traced_qps, untraced_qps), "ratio");
  }

  std::vector<double> put_ms;
  for (double l : put_latencies_) put_ms.push_back(l * 1e3);
  Metric(&metrics_, "put_p50_ms", Percentile(put_ms, 50), "ms");

  std::string restart_error;
  if (!RestartAndVerify(&restart_error)) {
    correct = false;
    if (error.empty()) error = restart_error;
  }
  g_tracing = false;
  Metric(&metrics_, "peak_rss_mb", PeakRssMb(), "MB");

  // Human-readable report: every end-to-end metric with unit and count.
  int64_t attempted = all.attempted + write_attempted_;
  int64_t failed = all.failed + write_failed_;
  size_t n = latencies_ms.size();
  auto say = [&](const std::string& name, double value, const char* unit,
                 const std::string& note) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-24s %14.6g %-7s %s", name.c_str(), value,
                  unit, note.c_str());
    info_.push_back(buf);
  };
  // Beyond p90, the highest percentile with at least ten samples past it.
  auto say_tail = [&](const std::string& prefix, const std::vector<double>& ms,
                      const std::string& note) {
    double p = HighestSupportedPercentile(ms.size());
    if (p <= 90.0) return;
    char name[64];
    std::snprintf(name, sizeof(name), "%s_p%g_ms", prefix.c_str(), p);
    say(name, Percentile(ms, p), "ms", note);
  };
  std::string reads = "n=" + std::to_string(n) + " reads";
  say("setup_s", metrics_["setup_s"].first, "s", "median of 3 set-ups");
  say("query_p50_ms", metrics_["query_p50_ms"].first, "ms", reads);
  say("query_p90_ms", metrics_["query_p90_ms"].first, "ms", reads);
  say_tail("query", latencies_ms, reads);
  if (zipf_ == nullptr) {
    // Per-text medians of the fixed mixes, to see which query moved.
    for (size_t i = 0; i < queries_.size(); ++i) {
      std::vector<double> own;
      for (const Sample& s : all.samples) {
        if (!s.traced && s.query == i) own.push_back(s.latency * 1e3);
      }
      std::string head = queries_[i].text.substr(0, 48);
      std::replace(head.begin(), head.end(), '\n', ' ');
      say("  text " + std::to_string(i) + " p50", Percentile(own, 50), "ms",
          "n=" + std::to_string(own.size()) + " " + head);
    }
  }
  say("throughput_qps", untraced_qps, "1/s",
      std::to_string(completed_untraced) + " reads in " +
          std::to_string(untraced_window) + " s, median of 5 windows");
  say("failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      "ratio", std::to_string(failed) + " of " + std::to_string(attempted) +
                   " reads+writes (base: attempted)");
  say("peak_rss_mb", metrics_["peak_rss_mb"].first, "MB", "VmHWM");
  say("ingest_docs_per_s", metrics_["ingest_docs_per_s"].first, "docs/s",
      "load phase, " + std::to_string(loaded_docs) + " docs, median of 3");
  std::string puts = "n=" + std::to_string(put_ms.size()) +
                     (ingest ? " puts, mixed phase, from due time"
                             : " puts, load phase");
  say("put_p50_ms", metrics_["put_p50_ms"].first, "ms", puts);
  say_tail("put", put_ms, puts);
  if (ingest) {
    say("writer_lag_p50_ms", Percentile(writer_lag_, 50) * 1e3, "ms",
        "how late the open-loop writer started writes");
    say("writer_lag_max_ms", Percentile(writer_lag_, 100) * 1e3, "ms", "");
  }
  say("recover_s", metrics_["recover_s"].first, "s",
      "median of " + std::to_string(recover_count_) + " reopens");
  say("space_amp", metrics_["space_amp"].first, "ratio",
      "data_dir bytes over live XML bytes");

  if (args_.trace) {
    std::vector<Span> spans = CollectSpans();
    std::map<int64_t, double> self = SelfTimes(spans);
    std::map<std::string, std::vector<double>> durations, selfs;
    for (const Span& span : spans) {
      durations[span.name].push_back(span.duration());
      selfs[span.name].push_back(self[span.id]);
    }
    double worst_residual = 0.0;
    for (const auto& [root, residual] : RootResiduals(spans)) {
      worst_residual = std::max(worst_residual, std::fabs(residual));
    }
    if (worst_residual > 1e-6) {
      correct = false;
      error = "span self times do not add up to their request span";
    }
    auto median = [&](const char* name, double scale) {
      return Percentile(durations[name], 50) * scale;
    };
    const Tally& t = all.tally;
    double per = static_cast<double>(std::max<int64_t>(t.requests, 1));
    Metric(&metrics_, "service.queue_ms", median("service.queue", 1e3), "ms");
    Metric(&metrics_, "service.exec_ms", median("service.exec", 1e3), "ms");
    Metric(&metrics_, "service.self_ms", Percentile(selfs["service.request"], 50) * 1e3, "ms");
    double lookups = static_cast<double>((cache_after.hits - cache_before.hits) +
                                         (cache_after.misses - cache_before.misses));
    Metric(&metrics_, "plan_cache.hit_ratio",
           Ratio(static_cast<double>(cache_after.hits - cache_before.hits), lookups), "ratio");
    Metric(&metrics_, "plan_cache.evictions",
           static_cast<double>(cache_after.evictions - cache_before.evictions), "count");
    Metric(&metrics_, "plan_cache.get_us", median("plan_cache.get", 1e6), "us");
    Metric(&metrics_, "parser.parse_us", median("parser.parse", 1e6), "us");
    Metric(&metrics_, "optimizer.rewrite_us", median("optimizer.rewrite", 1e6), "us");
    Metric(&metrics_, "optimizer.rules_fired",
           Ratio(static_cast<double>(t.rules_fired), static_cast<double>(t.compiles)), "count");
    Metric(&metrics_, "binder.bind_us", median("binder.bind", 1e6), "us");
    Metric(&metrics_, "api.compile_us", median("api.compile", 1e6), "us");
    Metric(&metrics_, "eval.execute_ms", median("eval.execute", 1e3), "ms");
    Metric(&metrics_, "eval.tuples", t.tuples / per, "count");
    Metric(&metrics_, "eval.groups", t.groups / per, "count");
    Metric(&metrics_, "eval.hash_probes", t.hash_probes / per, "count");
    Metric(&metrics_, "eval.linear_compares", t.linear_compares / per, "count");
    Metric(&metrics_, "eval.batch_fill",
           Ratio(static_cast<double>(t.batch_rows), static_cast<double>(t.batches) * 1024.0),
           "ratio");
    Metric(&metrics_, "eval.index_scans", t.index_scans / per, "count");
    Metric(&metrics_, "eval.fallback_walk_nodes", t.fallback_walk_nodes / per, "count");
    Metric(&metrics_, "eval.collection_docs", t.collection_docs / per, "count");
    Metric(&metrics_, "eval.order_by_elided", t.order_by_elided / per, "count");
    Metric(&metrics_, "pool.lane_busy_ratio", Ratio(t.cpu_seconds, t.lane_seconds), "ratio");
    Metric(&metrics_, "shred.scans", t.shred_scans / per, "count");
    Metric(&metrics_, "shred.rows", t.shred_rows / per, "count");
    Metric(&metrics_, "shred.fallbacks", t.shred_fallbacks / per, "count");
    Metric(&metrics_, "shred.hit_ratio",
           Ratio(static_cast<double>(t.shred_scans),
                 static_cast<double>(t.shred_scans + t.shred_fallbacks)),
           "ratio");
    Metric(&metrics_, "shred.build_ms", median("shred.build", 1e3), "ms");
    Metric(&metrics_, "store.snapshot_us", median("store.snapshot", 1e6), "us");
    Metric(&metrics_, "store.snapshot_reuse_ratio",
           Ratio(static_cast<double>(t.snapshot_reuses), static_cast<double>(t.snapshot_calls)),
           "ratio");
    Metric(&metrics_, "store.put_ms", median("store.put", 1e3), "ms");
    Metric(&metrics_, "storage.checkpoint_ms", median("storage.checkpoint", 1e3), "ms");
    Metric(&metrics_, "xml.parse_ms", median("xml.parse", 1e3), "ms");
    Metric(&metrics_, "xml.serialize_us", median("xml.serialize", 1e6), "us");
    Metric(&metrics_, "xml.result_bytes",
           Ratio(static_cast<double>(t.result_bytes), static_cast<double>(t.results)), "bytes");

    // Spans are kept in memory during the run and written out here.
    std::string path = out_dir_ + "/trace-" + w_.name + ".json";
    std::ofstream trace(path);
    trace << "{\"workload\": \"" << w_.name << "\", \"seed\": " << args_.seed
          << ", \"spans\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      trace << (i ? ",\n" : "") << "{\"name\": \"" << s.name
            << "\", \"start_us\": " << static_cast<int64_t>(s.start * 1e6)
            << ", \"end_us\": " << static_cast<int64_t>(s.end * 1e6)
            << ", \"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}";
    }
    trace << "\n]}\n";
    info_.push_back("# per-layer metrics (traced half; base of each ratio in "
                    "perfbench/README.md); spans: " + path);
    for (const auto& [name, value] : metrics_) {
      if (name.find('.') == std::string::npos) continue;
      say(name, value.first, value.second.c_str(), "");
    }
    char residual[96];
    std::snprintf(residual, sizeof(residual),
                  "# worst |request span - sum of self times| = %.3g s",
                  worst_residual);
    info_.push_back(residual);
  }

  service_.reset();
  fs::remove_all(data_dir_);
  if (!correct) info_.push_back("# FAILED: " + error);
  Emit(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  int nproc = perfbench::CpuCount();
  std::optional<perfbench::Workload> workload =
      perfbench::FindWorkload(args.workload, nproc);
  if (!workload.has_value() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: xqa_perfbench --workload dashboard|adhoc|ingest|report "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    perfbench::Bench bench(args, *workload, nproc);
    return bench.Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xqa_perfbench: %s\n", e.what());
    return 1;
  }
}

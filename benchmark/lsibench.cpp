// lsibench: the end-to-end and per-layer benchmark of the LSI search daemon.
//
// One binary, one workload per process. It generates a seeded synthetic
// corpus, builds it into a core::ShardedIndex, starts an in-process
// serve::HttpServer and drives it over loopback from at most four client
// threads, one keep-alive connection each. It prints a host fingerprint and
// a report of every phase, checks the answers, and prints as its last line
// one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//   lsibench --workload <name> --seed <n> --seconds <s> --trace 0
//       the end-to-end metrics, with nothing traced: the daemon's CPU cycles
//       per search, per ingested document, per consolidation and for
//       set-up, its peak memory and its recall, with the wall-clock rates
//       and latencies printed beside them;
//   lsibench --workload <name> --seed <n> --seconds <s> --trace 1
//       the per-layer metrics: the same request stream replayed through the
//       public call of each layer, timed by spans this file records (the
//       library carries none). Spans stay in memory and are written to
//       trace_<workload>.json in the working directory at exit;
//   lsibench --smoke [BENCHMARK.json]
//       every workload at toy size in both modes; fails unless each metric
//       the file names is printed with its unit and every check passes.
//
// benchmark/README.md has the metric tables and why each workload exists.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <time.h>

#include "la/kernels.hpp"
#include "lsi/gather/dedup.hpp"
#include "lsi/gather/facets.hpp"
#include "lsi/gather/fusion.hpp"
#include "lsi/lsi.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "synth/corpus.hpp"
#include "../tests/serve/test_client.hpp"

namespace {

using namespace lsi;
using Clock = std::chrono::steady_clock;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
Clock::duration from_secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// CPU seconds used so far by the whole process or by the calling thread.
/// Time the hypervisor takes a vCPU away (steal) is not counted.
double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}
double process_cpu_s() { return cpu_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_s(CLOCK_THREAD_CPUTIME_ID); }

/// Nearest-rank percentile, p in (0, 1]. NaN for an empty sample, so a
/// metric taken from no samples fails print_result's check.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
double median(const std::vector<double>& v) { return percentile(v, 0.5); }

// ---------------------------------------------------------------------------
// Workloads and metrics
// ---------------------------------------------------------------------------

/// The /search knobs of search-rich. The traced run replays the gather
/// pipeline with them on every workload, so the gather.* layer metrics always
/// describe the same stages.
constexpr const char* kRichParams = "&merge=zscore&collapse=0.9&facets=5";

struct Workload {
  const char* name;
  std::size_t topics;
  std::size_t docs_per_topic;  ///< generated; every sixth is held out
  std::size_t shards;
  std::size_t k;               ///< total factor budget, split across shards
  bool rich;                   ///< sends kRichParams
  double rate;                 ///< open-loop search rate, q/s
  bool mixed;                  ///< writes run beside the open-loop reads
  std::size_t cycles;          ///< write cycles per round
};

// Why each workload exists is in README.md. The open-loop rates are fixed
// at about a sixth of the closed-loop read capacity of the reference host on
// a quiet stretch: its capacity fell by more than half when neighbours were
// busy, and at a third of capacity search-large then built a backlog that
// left requests unsent. search-small's write cycle takes about 10 ms, so it
// runs two a round.
constexpr Workload kWorkloads[] = {
    {"search-small", 10, 480, 2, 16, false, 1500.0, false, 2},
    {"search-large", 100, 360, 4, 128, false, 400.0, false, 1},
    {"search-rich", 20, 480, 4, 64, true, 40.0, false, 1},
    {"ingest-mixed", 100, 240, 4, 128, false, 300.0, true, 1},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The bounded metrics are CPU work, not wall time: on a shared virtual host
// the wall-clock rates and latencies of one commit move between runs by more
// than any bound allows (README.md), and are printed but not bounded.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"recall_at_10", "ratio"},
    {"search_kcycles", "kcycles/query"},
    {"ingest_kcycles", "kcycles/doc"},
    {"consolidate_mcycles", "Mcycles"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.parse_us", "us"},
    {"serve.serialize_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.self_us", "us"},
    {"serve.wait_ms", "ms"},
    {"text.weight_us", "us"},
    {"sharding.snapshot_us", "us"},
    {"sharding.rank_batch_us", "us"},
    {"sharding.fanout_us", "us"},
    {"sharding.shard_skew", "ratio"},
    {"core.project_us", "us"},
    {"core.score_us", "us"},
    {"core.select_us", "us"},
    {"core.exact_us", "us"},
    {"core.flops_per_query", "count"},
    {"core.docs_scored_per_query", "count"},
    {"ann.docs_scanned_per_query", "count"},
    {"ann.centroids_probed_per_query", "count"},
    {"ann.scan_ratio", "ratio"},
    {"ann.build_s", "s"},
    {"la.sweep_gflops", "GFLOP/s"},
    {"gather.fuse_us", "us"},
    {"gather.profile_us", "us"},
    {"gather.collapse_us", "us"},
    {"gather.facets_us", "us"},
    {"gather.collapsed_ratio", "ratio"},
    {"gather.gather_batch_us", "us"},
    {"concurrent.enqueue_us", "us"},
    {"concurrent.flush_ms", "ms"},
    {"concurrent.publishes_per_batch", "count"},
    {"concurrent.publish_bytes", "bytes"},
    {"concurrent.rejected", "count"},
    {"update.consolidate_s", "s"},
    {"update.auto_consolidations_per_1k_docs", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

constexpr std::size_t kTop = 10;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kBatchDocs = 16;      ///< documents per /ingest POST
constexpr std::size_t kQueryTarget = 1000;  ///< generated queries, about
constexpr std::size_t kCheckQueries = 50;
constexpr std::size_t kRecallQueries = 200;
constexpr std::size_t kTracedRequests = 2048;  ///< cap on replayed reads
constexpr std::size_t kReplayChunk = 64;       ///< round trips back to back
constexpr double kIngestRate = 10.0;  ///< ingest-mixed: POSTs per second
constexpr int kRounds = 10;  ///< closed-loop read slices, and write rounds
/// Shares of --seconds one closed-loop read slice and the open-loop phase
/// take; a write round takes as long as its work does.
constexpr double kClosedShare = 0.05;
constexpr double kOpenShare = 0.4;
constexpr double kWriteLimitSeconds = 30.0;  ///< guard on one write cycle
constexpr double kGraceSeconds = 1.0;  ///< open loop: send deadline slack
constexpr double kLatenessLimitMs = 1.0;
constexpr std::uint32_t kWriteRequestBase = 1u << 30;
/// setup_s counts the set-up's CPU cycles as seconds of a core at this
/// clock, so it does not move with the host's clock speed.
constexpr double kReferenceHz = 3e9;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  bool smoke = false;  ///< toy corpus, one set-up, short warm-up, 2 rounds

  double warmup_seconds() const { return smoke ? 0.1 : 1.0; }
  int rounds() const { return smoke ? 2 : kRounds; }
};

/// What one run reports: the JSON line's fields.
struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;

  void fail(const std::string& why) {
    correct = false;
    std::printf("# CHECK FAILED: %s\n", why.c_str());
  }
};

// ---------------------------------------------------------------------------
// Corpus and requests
// ---------------------------------------------------------------------------

struct Corpus {
  text::Collection base;
  text::Collection held_out;         ///< the ingest stream's documents
  std::vector<std::string> queries;  ///< seeded shuffle of the synth queries
};

Corpus make_corpus(const Workload& w, const RunConfig& cfg) {
  synth::CorpusSpec spec;
  spec.topics = cfg.smoke ? std::min<std::size_t>(w.topics, 6) : w.topics;
  spec.docs_per_topic = cfg.smoke ? 60 : w.docs_per_topic;
  spec.queries_per_topic =
      cfg.smoke ? 3
                : std::max<std::size_t>(
                      3, (kQueryTarget + spec.topics - 1) / spec.topics);
  spec.seed = cfg.seed;
  synth::SyntheticCorpus generated = synth::generate_corpus(spec);
  Corpus c;
  for (std::size_t i = 0; i < generated.docs.size(); ++i) {
    (i % 6 == 5 ? c.held_out : c.base).push_back(std::move(generated.docs[i]));
  }
  for (synth::Query& q : generated.queries) {
    c.queries.push_back(std::move(q.text));
  }
  std::mt19937_64 rng(cfg.seed);
  std::shuffle(c.queries.begin(), c.queries.end(), rng);
  return c;
}

/// Ingest batch b: held-out documents, cycled with a round suffix on the
/// label once the pool runs out.
std::vector<text::Document> ingest_batch(const Corpus& c, std::size_t b) {
  std::vector<text::Document> docs;
  for (std::size_t j = 0; j < kBatchDocs; ++j) {
    const std::size_t n = b * kBatchDocs + j;
    const text::Document& src = c.held_out[n % c.held_out.size()];
    docs.push_back({src.label + "~" + std::to_string(n / c.held_out.size()),
                    src.body});
  }
  return docs;
}

std::string url_encode(std::string_view s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char ch : s) {
    if (std::isalnum(ch) || ch == '-' || ch == '_' || ch == '.') {
      out += static_cast<char>(ch);
    } else if (ch == ' ') {
      out += '+';
    } else {
      out += '%';
      out += hex[ch >> 4];
      out += hex[ch & 15];
    }
  }
  return out;
}

std::string search_target(const Workload& w, const std::string& query,
                          bool exact = false) {
  std::string t = "/search?q=" + url_encode(query) +
                  "&top=" + std::to_string(kTop);
  if (w.rich) t += kRichParams;
  if (exact) t += "&exact=1";
  return t;
}

/// The SearchOptions the server derives from search_target's parameters.
core::SearchOptions search_options(bool rich) {
  core::SearchOptions o;
  o.z = kTop;
  if (rich) {
    o.merge = gather::MergePolicy::kZScore;
    o.collapse_cosine = 0.9;
    o.facets = 5;
  }
  return o;
}

std::string http_wire(const char* method, const std::string& target,
                      const std::string& body = {}) {
  std::string w = method;
  w += ' ';
  w += target;
  w += " HTTP/1.1\r\nHost: lsibench\r\n";
  if (!body.empty()) {
    w += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  w += "\r\n";
  w += body;
  return w;
}

enum class Expect { kSearch, kIngest, kConsolidate };

struct Request {
  std::string wire;
  std::size_t docs = 0;  ///< documents in an /ingest body
};

Request ingest_request(const std::vector<text::Document>& docs) {
  std::string body;
  for (const text::Document& d : docs) body += d.label + "\t" + d.body + "\n";
  return {http_wire("POST", "/ingest?wait=1", body), docs.size()};
}

// ---------------------------------------------------------------------------
// A minimal JSON reader, for response bodies and BENCHMARK.json
// ---------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* get(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  std::optional<Json> parse() {
    Json root;
    if (!value(root, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;
    return root;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (pos_ + 4 > s_.size()) return false;
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
          out += '?';  // only validity matters here
          break;
        default: return false;
      }
    }
    return false;
  }
  bool value(Json& out, int depth) {
    if (depth > 32) return false;
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out.type = Json::Type::kObject;
      ++pos_;
      if (eat('}')) return true;
      do {
        std::string key;
        Json v;
        if (!string(key) || !eat(':') || !value(v, depth + 1)) return false;
        out.fields.emplace_back(std::move(key), std::move(v));
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      out.type = Json::Type::kArray;
      ++pos_;
      if (eat(']')) return true;
      do {
        Json v;
        if (!value(v, depth + 1)) return false;
        out.items.push_back(std::move(v));
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') {
      out.type = Json::Type::kString;
      return string(out.string);
    }
    if (literal("true")) {
      out.type = Json::Type::kBool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.type = Json::Type::kBool;
      return true;
    }
    if (literal("null")) return true;
    const std::size_t start = pos_;
    while (pos_ < s_.size() && std::strchr("+-0123456789.eE", s_[pos_])) ++pos_;
    if (pos_ == start) return false;
    const std::string num(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(num.c_str(), &end);
    out.type = Json::Type::kNumber;
    return end == num.c_str() + num.size() && std::isfinite(out.number);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

struct Hit {
  std::size_t doc = 0;
  double score = 0.0;  ///< "score" in the gather shape, else "cosine"
  std::vector<std::size_t> duplicates;
};

struct SearchBody {
  std::vector<Hit> hits;
  std::vector<std::string> facets;
  std::vector<std::uint64_t> generations;
};

/// A JSON number that is a document id or a generation, or nullopt.
std::optional<std::size_t> as_count(const Json* j) {
  if (j == nullptr || j->type != Json::Type::kNumber || j->number < 0 ||
      j->number > 9e15 || j->number != std::floor(j->number)) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(j->number);
}

/// Parses a /search body; nullopt unless it is well-formed JSON holding at
/// most kTop results whose scores never increase.
std::optional<SearchBody> parse_search(const std::string& body) {
  const std::optional<Json> root = JsonReader(body).parse();
  if (!root || root->type != Json::Type::kObject) return std::nullopt;
  const Json* results = root->get("results");
  if (results == nullptr || results->type != Json::Type::kArray ||
      results->items.size() > kTop) {
    return std::nullopt;
  }
  SearchBody out;
  for (const Json& r : results->items) {
    const std::optional<std::size_t> doc = as_count(r.get("doc"));
    const Json* score = r.get("score") ? r.get("score") : r.get("cosine");
    if (!doc || score == nullptr || score->type != Json::Type::kNumber) {
      return std::nullopt;
    }
    Hit h;
    h.doc = *doc;
    h.score = score->number;
    if (!out.hits.empty() && h.score > out.hits.back().score) {
      return std::nullopt;
    }
    if (const Json* dups = r.get("duplicates")) {
      for (const Json& d : dups->items) {
        const std::optional<std::size_t> id = as_count(&d);
        if (!id) return std::nullopt;
        h.duplicates.push_back(*id);
      }
    }
    out.hits.push_back(std::move(h));
  }
  if (const Json* facets = root->get("facets")) {
    for (const Json& f : facets->items) {
      const Json* term = f.get("term");
      if (term == nullptr || term->type != Json::Type::kString) {
        return std::nullopt;
      }
      out.facets.push_back(term->string);
    }
  }
  if (const Json* gens = root->get("generations")) {
    for (const Json& g : gens->items) {
      const std::optional<std::size_t> gen = as_count(&g);
      if (!gen) return std::nullopt;
      out.generations.push_back(*gen);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Loopback HTTP client
// ---------------------------------------------------------------------------

using Client = serve::testing::TestClient;
using Reply = serve::testing::ClientResponse;

/// Sends pre-built request bytes on a keep-alive connection and reads one
/// response; false on a transport failure, after which the connection is
/// unusable (the server closes a keep-alive connection only on an error or
/// at shutdown).
bool call(Client& client, const std::string& wire, Reply& reply) {
  if (!client.send_raw(wire)) return false;
  reply = client.read_response();
  return reply.status != 0 && !reply.closed;
}

bool valid_reply(Expect expect, const Request& req, const Reply& reply) {
  switch (expect) {
    case Expect::kSearch:
      return reply.status == 200 && parse_search(reply.body).has_value();
    case Expect::kIngest: {
      const std::optional<Json> j = JsonReader(reply.body).parse();
      const Json* accepted = j ? j->get("accepted") : nullptr;
      return reply.status == 202 && accepted != nullptr &&
             accepted->number == static_cast<double>(req.docs);
    }
    case Expect::kConsolidate: {
      const std::optional<Json> j = JsonReader(reply.body).parse();
      const Json* done = j ? j->get("consolidated") : nullptr;
      return reply.status == 200 && done != nullptr && done->boolean;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// One stream of requests of a phase. Open loop (rate > 0): request i is due
/// at start + i / rate whatever the replies do, requests are dealt
/// round-robin to the connections, and latency runs from the due time, so a
/// stall is charged to every request it delays. Closed loop (rate == 0):
/// each connection sends its next request when the reply to the previous
/// one arrives, until the phase ends or `count` requests were taken.
struct Stream {
  Expect expect = Expect::kSearch;
  const std::vector<Request>* requests = nullptr;
  std::size_t first = 0;  ///< request i is requests[(first + i) % size]
  std::size_t connections = 1;
  double rate = 0.0;
  std::size_t count = 0;
};

struct Tally {
  std::vector<double> latency_ms;   ///< completed requests
  std::vector<double> lateness_ms;  ///< open loop: send - max(due, last reply)
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t non2xx = 0;
  std::size_t transport = 0;
  std::size_t unsent = 0;  ///< open loop: due, but not sent before the grace
  std::size_t invalid = 0;
  std::size_t docs_acked = 0;
  double elapsed_s = 0.0;  ///< start to the last reply
  double client_cpu_s = 0.0;  ///< CPU time of the client threads

  std::size_t failed() const { return non2xx + transport + unsent; }

  void merge(const Tally& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    lateness_ms.insert(lateness_ms.end(), o.lateness_ms.begin(),
                       o.lateness_ms.end());
    attempted += o.attempted;
    completed += o.completed;
    non2xx += o.non2xx;
    transport += o.transport;
    unsent += o.unsent;
    invalid += o.invalid;
    docs_acked += o.docs_acked;
    elapsed_s = std::max(elapsed_s, o.elapsed_s);
    client_cpu_s += o.client_cpu_s;
  }
};

/// Runs every stream concurrently for `seconds` and returns one tally each.
/// `server_cpu_s`, when given, receives the CPU time the daemon used during
/// the phase: the process's, less that of the client threads and the caller.
std::vector<Tally> run_phase(std::uint16_t port,
                             const std::vector<Stream>& streams,
                             double seconds, double* server_cpu_s = nullptr) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end = start + from_secs(seconds);
  const Clock::time_point give_up = end + from_secs(kGraceSeconds);
  std::vector<Tally> tallies(streams.size());
  std::vector<std::atomic<std::size_t>> next(streams.size());
  std::mutex mu;

  auto drive = [&](std::size_t s, std::size_t conn) {
    const double cpu0 = thread_cpu_s();
    const Stream& st = streams[s];
    Tally t;
    auto client = std::make_unique<Client>(port);
    Clock::time_point last_reply = start;
    Reply reply;
    auto send_one = [&](std::size_t i, Clock::time_point due) {
      const Request& req = (*st.requests)[(st.first + i) % st.requests->size()];
      if (!client->connected()) client = std::make_unique<Client>(port);
      const Clock::time_point sent = Clock::now();
      if (st.rate > 0) {
        t.lateness_ms.push_back(millis(sent - std::max(due, last_reply)));
      }
      const bool ok = call(*client, req.wire, reply);
      const Clock::time_point done = Clock::now();
      last_reply = done;
      t.elapsed_s = std::max(t.elapsed_s, secs(done - start));
      if (!ok) {
        ++t.transport;
        client = std::make_unique<Client>(port);
        return;
      }
      if (reply.status < 200 || reply.status >= 300) {
        ++t.non2xx;
        return;
      }
      if (valid_reply(st.expect, req, reply)) {
        t.docs_acked += req.docs;
      } else {
        ++t.invalid;
      }
      ++t.completed;
      t.latency_ms.push_back(millis(done - due));
    };
    if (st.rate > 0) {
      for (std::size_t i = conn; i < st.count; i += st.connections) {
        ++t.attempted;
        const Clock::time_point due =
            start + from_secs(static_cast<double>(i) / st.rate);
        if (Clock::now() >= give_up) {
          ++t.unsent;
          continue;
        }
        std::this_thread::sleep_until(due);
        send_one(i, due);
      }
    } else {
      std::this_thread::sleep_until(start);
      for (;;) {
        if (Clock::now() >= end) break;
        const std::size_t i = next[s].fetch_add(1);
        if (i >= st.count) break;
        ++t.attempted;
        send_one(i, Clock::now());
      }
    }
    client.reset();
    t.client_cpu_s = thread_cpu_s() - cpu0;
    std::lock_guard<std::mutex> lock(mu);
    tallies[s].merge(t);
  };

  const double process0 = process_cpu_s(), caller0 = thread_cpu_s();
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t c = 0; c < streams[s].connections; ++c) {
      threads.emplace_back(drive, s, c);
    }
  }
  for (std::thread& th : threads) th.join();
  if (server_cpu_s != nullptr) {
    double clients = 0.0;
    for (const Tally& t : tallies) clients += t.client_cpu_s;
    *server_cpu_s = process_cpu_s() - process0 -
                    (thread_cpu_s() - caller0) - clients;
  }
  return tallies;
}

/// Prints a phase and adds its requests to the run's ledger; invalid bodies
/// fail the run.
void account(Result& r, const char* phase, const Tally& t) {
  std::printf(
      "# phase %-14s attempted=%zu completed=%zu failed=%zu (non2xx=%zu "
      "transport=%zu unsent=%zu) invalid=%zu p50=%.3fms p99=%.3fms "
      "samples=%zu\n",
      phase, t.attempted, t.completed, t.failed(), t.non2xx, t.transport,
      t.unsent, t.invalid, percentile(t.latency_ms, 0.5),
      percentile(t.latency_ms, 0.99), t.latency_ms.size());
  r.attempted += t.attempted;
  r.failed += t.failed();
  if (t.invalid > 0) {
    r.fail(std::string(phase) + ": " + std::to_string(t.invalid) +
           " 2xx bodies failed validation");
  }
}

// ---------------------------------------------------------------------------
// The daemon under test
// ---------------------------------------------------------------------------

struct Daemon {
  std::unique_ptr<core::ShardedIndex> index;
  std::unique_ptr<serve::HttpServer> server;
  double build_s = 0.0;
  double start_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of build + start, every thread

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (server) server->drain();
    if (index) index->shutdown();
  }
};

core::ShardingOptions sharding_options(const Workload& w) {
  core::ShardingOptions o;
  o.num_shards = w.shards;
  o.index.k = w.k;
  return o;
}

/// Batches in one write cycle: as many 16-doc POSTs as keep every shard,
/// starting with none pending, below its automatic consolidation.
/// Round-robin routing gives each shard the same share of a batch.
std::size_t cycle_batches(const Workload& w) {
  const std::size_t per_shard = kBatchDocs / w.shards;
  return (sharding_options(w).concurrent.consolidate_every - 1) / per_shard;
}

/// The set-up setup_s times: ShardedIndex::try_build + HttpServer::start.
std::unique_ptr<Daemon> start_daemon(const Workload& w,
                                     const text::Collection& base,
                                     std::string& error) {
  auto d = std::make_unique<Daemon>();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  auto built = core::ShardedIndex::try_build(base, sharding_options(w));
  if (!built.ok()) {
    error = "index build: " + built.status().to_string();
    return nullptr;
  }
  d->index = std::make_unique<core::ShardedIndex>(std::move(*built));
  const Clock::time_point t1 = Clock::now();
  d->server = std::make_unique<serve::HttpServer>(*d->index);
  if (Status s = d->server->start(); !s.ok()) {
    error = "server start: " + s.to_string();
    return nullptr;
  }
  d->build_s = secs(t1 - t0);
  d->start_s = secs(Clock::now() - t1);
  d->cpu_s = process_cpu_s() - cpu0;
  return d;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The calling thread's clock rate in cycles per second, timed on chains of
/// dependent 64-bit multiply-adds: on x86-64 each link takes 4 cycles (imul
/// 3, add 1) however fast the clock runs, and thread CPU time leaves out
/// time the host takes the vCPU away. The fastest of a few short chains is
/// kept, as a reading can only be slowed by a disturbance. The CPU metrics
/// multiply CPU time by it, so they count cycles and do not move with the
/// host's clock, which on the reference host drifts by up to a third over
/// minutes (README.md).
volatile std::uint64_t clock_probe_sink;  ///< keeps the probe's loop
double clock_hz() {
  constexpr int kLinks = 1'500'000;  // about 2 ms
  double best = 0.0;
  for (int chain = 0; chain < 3; ++chain) {
    const double t0 = thread_cpu_s();
    std::uint64_t x = 1;
    for (int i = 0; i < kLinks; ++i) x = x * 6364136223846793005ull + 1;
    clock_probe_sink = x;
    best = std::max(best, 4.0 * kLinks / (thread_cpu_s() - t0));
  }
  return best;
}

void print_fingerprint(const Workload& w, const RunConfig& cfg) {
  std::printf("# lsibench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              w.name, static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.smoke ? " smoke" : "");
  std::printf("# host cpu=\"%s\" nproc=%u kernel=%s build=%s commit=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              la::kern::active().name, LSIBENCH_BUILD_TYPE, LSIBENCH_COMMIT);
}

// ---------------------------------------------------------------------------
// Checks and untimed measurements
// ---------------------------------------------------------------------------

bool same_score(double http, double lib) {
  // The server prints scores with six significant digits.
  return std::fabs(http - lib) <= 1e-5 * std::fabs(lib);
}

bool same_hits(const SearchBody& http,
               const std::vector<core::ScoredDoc>& lib) {
  bool same = http.hits.size() == lib.size();
  for (std::size_t h = 0; same && h < lib.size(); ++h) {
    same = http.hits[h].doc == lib[h].doc &&
           same_score(http.hits[h].score, lib[h].cosine);
  }
  return same;
}

bool same_hits(const SearchBody& http,
               const core::ShardedSnapshot::GatherResult& lib) {
  bool same = http.hits.size() == lib.hits.size() &&
              http.facets.size() == lib.facets.size();
  for (std::size_t h = 0; same && h < lib.hits.size(); ++h) {
    same = http.hits[h].doc == lib.hits[h].doc &&
           same_score(http.hits[h].score, lib.hits[h].score) &&
           http.hits[h].duplicates.size() == lib.hits[h].duplicates.size() &&
           std::equal(lib.hits[h].duplicates.begin(),
                      lib.hits[h].duplicates.end(),
                      http.hits[h].duplicates.begin());
  }
  for (std::size_t f = 0; same && f < lib.facets.size(); ++f) {
    same = http.facets[f] == lib.facets[f].term;
  }
  return same;
}

/// With no writes in flight, the HTTP answers for the first `n` queries must
/// equal the library's on a snapshot pinned beside them: same generations,
/// same documents in the same order, same scores, duplicates and facets.
void check_http_against_library(std::uint16_t port, const Workload& w,
                                const core::ShardedIndex& index,
                                const std::vector<std::string>& queries,
                                std::size_t n, Result& r) {
  const core::ShardedSnapshot view = index.snapshot();
  const core::SearchOptions opts = search_options(w.rich);
  Client client(port);
  Reply reply;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::min(n, queries.size()); ++i) {
    ++r.attempted;
    if (!call(client, http_wire("GET", search_target(w, queries[i])), reply) ||
        reply.status != 200) {
      ++r.failed;
      continue;
    }
    const std::optional<SearchBody> body = parse_search(reply.body);
    bool same = body.has_value() && body->generations == view.generations();
    if (same && w.rich) {
      auto lib = view.try_gather_batch({queries[i]}, opts);
      same = lib.ok() && same_hits(*body, (*lib)[0]);
    } else if (same) {
      auto lib = view.try_rank_batch({queries[i]}, opts);
      same = lib.ok() && same_hits(*body, (*lib)[0]);
    }
    if (!same) ++mismatches;
  }
  std::printf("# check http-vs-library: %zu queries, %zu mismatches\n",
              std::min(n, queries.size()), mismatches);
  if (mismatches > 0) r.fail("HTTP answers differ from the library's");
}

/// recall@10 of the default /search against &exact=1 over the first `n`
/// queries. Deterministic: the index and every query are fixed by the seed.
double measure_recall(std::uint16_t port, const Workload& w,
                      const std::vector<std::string>& queries, std::size_t n,
                      Result& r) {
  n = std::min(n, queries.size());
  std::vector<double> recall(n, 0.0);
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Client client(port);
      Reply a, e;
      for (std::size_t i = c; i < n; i += kConnections) {
        if (!call(client, http_wire("GET", search_target(w, queries[i])), a) ||
            !call(client, http_wire("GET", search_target(w, queries[i], true)),
                  e) ||
            a.status != 200 || e.status != 200) {
          ++failed;
          continue;
        }
        const auto approx = parse_search(a.body);
        const auto exact = parse_search(e.body);
        if (!approx || !exact) {
          ++failed;
          continue;
        }
        std::set<std::size_t> truth;
        for (const Hit& h : exact->hits) truth.insert(h.doc);
        std::size_t found = 0;
        for (const Hit& h : approx->hits) found += truth.count(h.doc);
        recall[i] = truth.empty() ? 1.0
                                  : static_cast<double>(found) /
                                        static_cast<double>(truth.size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r.attempted += 2 * n;
  r.failed += failed.load();
  if (failed.load() > 0) r.fail("recall queries failed");
  double sum = 0.0;
  for (double x : recall) sum += x;
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/// After the writes: every acked document was folded and is searchable.
void check_ingested(const core::ShardedIndex& index, std::size_t base,
                    std::size_t acked, Result& r) {
  const std::size_t docs = index.snapshot().num_docs();
  std::printf("# check ingested: base=%zu acked=%zu ingested=%llu docs=%zu\n",
              base, acked, static_cast<unsigned long long>(index.ingested()),
              docs);
  if (index.ingested() != acked || docs != base + acked) {
    r.fail("ingested documents do not match the acked ones");
  }
}

// ---------------------------------------------------------------------------
// End-to-end run
// ---------------------------------------------------------------------------

struct Inputs {
  Corpus corpus;
  std::vector<Request> searches;  ///< one per query, in query order
  std::vector<Request> batches;   ///< 16-doc wait=1 ingests, in send order
  std::size_t cycle = 0;          ///< batches per write cycle
  std::size_t stream = 0;  ///< ingest-mixed: batches of the open-loop phase
};

/// The inputs of a run: its write cycles and one more, at most one more
/// batch a cycle, and on ingest-mixed the open-loop stream. At full size
/// that is at most about 60% of the base documents, so a shard under the
/// ANN cutoff stays under it.
Inputs make_inputs(const Workload& w, const RunConfig& cfg) {
  Inputs in;
  in.corpus = make_corpus(w, cfg);
  for (const std::string& q : in.corpus.queries) {
    in.searches.push_back({http_wire("GET", search_target(w, q)), 0});
  }
  in.cycle = cycle_batches(w);
  if (w.mixed) {
    in.stream = std::max<std::size_t>(
        1, static_cast<std::size_t>(kIngestRate * kOpenShare * cfg.seconds));
  }
  const std::size_t cycles = static_cast<std::size_t>(cfg.rounds()) * w.cycles;
  const std::size_t total = (cycles + 1) * (in.cycle + 1) + in.stream;
  for (std::size_t b = 0; b < total; ++b) {
    in.batches.push_back(ingest_request(ingest_batch(in.corpus, b)));
  }
  return in;
}

bool every_shard_pending(const core::ShardedIndex& index) {
  for (const core::ShardedIndex::ShardInfo& s : index.shard_infos()) {
    if (s.unconsolidated == 0) return false;
  }
  return true;
}

/// Runs `once` at least `min_reps` times, then again while `budget_s`
/// seconds have not passed, at most `max_reps` times; returns its values.
template <typename F>
std::vector<double> repeat(int min_reps, int max_reps, double budget_s,
                           F once) {
  std::vector<double> values;
  const Clock::time_point stop = Clock::now() + from_secs(budget_s);
  while (static_cast<int>(values.size()) < min_reps ||
         (static_cast<int>(values.size()) < max_reps && Clock::now() < stop)) {
    values.push_back(once());
  }
  return values;
}

/// Builds the daemon at least three times, each torn down before the next,
/// and keeps the last. setup_s is the median over the builds of their CPU
/// cycles, every thread's, in seconds of a core at kReferenceHz.
std::unique_ptr<Daemon> set_up(const Workload& w, const RunConfig& cfg,
                               const Corpus& corpus, Result& r) {
  std::unique_ptr<Daemon> d;
  bool ok = true;
  std::vector<double> wall;
  r.metrics["setup_s"] = median(repeat(
      cfg.smoke ? 1 : 3, cfg.smoke ? 1 : 15, 0.1 * cfg.seconds, [&] {
        if (!ok) return 0.0;
        d.reset();
        const double hz = clock_hz();
        std::string error;
        d = start_daemon(w, corpus.base, error);
        if (!d) {
          ok = false;
          r.fail(error);
          return 0.0;
        }
        std::printf(
            "# setup: build=%.3fs start=%.4fs cpu=%.3fs clock=%.2fGHz\n",
            d->build_s, d->start_s, d->cpu_s, hz / 1e9);
        wall.push_back(d->build_s + d->start_s);
        return d->cpu_s * hz / kReferenceHz;
      }));
  std::printf("# reported setup wall time: %.4fs, median of %zu builds\n",
              median(wall), wall.size());
  return d;
}

void warm_up(std::uint16_t port, const Inputs& in, const RunConfig& cfg) {
  Stream s;
  s.requests = &in.searches;
  s.connections = kConnections;
  s.count = SIZE_MAX;
  (void)run_phase(port, {s}, cfg.warmup_seconds());
}

void print_rounds(const char* what, const std::vector<double>& v) {
  std::printf("# rounds %s:", what);
  for (double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

Result run_end_to_end(const Workload& w, const RunConfig& cfg) {
  Result r;
  const Inputs in = make_inputs(w, cfg);
  const Corpus& corpus = in.corpus;
  std::unique_ptr<Daemon> d = set_up(w, cfg, corpus, r);
  if (!d) return r;
  const std::uint16_t port = d->server->port();
  const double S = cfg.seconds;

  warm_up(port, in, cfg);
  check_http_against_library(port, w, *d->index, corpus.queries, kCheckQueries,
                             r);
  r.metrics["recall_at_10"] =
      measure_recall(port, w, corpus.queries, kRecallQueries, r);

  // Three phases, each measured on its own. Reads first, on the index as
  // built: kRounds closed-loop slices on four connections (the daemon's CPU
  // per search, and the read throughput), each continuing the query order
  // where the last one stopped. Then one open-loop phase at the workload's
  // fixed rate (latency from each request's due time), on ingest-mixed with
  // the ingest stream beside it. Then the writes, on one connection with no
  // reads in flight: kRounds rounds of w.cycles cycles, each a POST
  // /consolidate and then in.cycle batches, so every cycle folds in the same
  // documents per shard and consolidates once, and no batch of it triggers
  // an automatic consolidation. One untimed cycle first leaves fold-ins
  // pending for the first /consolidate.
  Stream read;
  read.requests = &in.searches;
  read.connections = kConnections;
  read.count = SIZE_MAX;
  const double open_s = kOpenShare * S;
  Stream search;
  search.requests = &in.searches;
  search.connections = w.mixed ? 2 : kConnections;
  search.rate = w.rate;
  search.count = std::max<std::size_t>(
      1, static_cast<std::size_t>(w.rate * open_s));
  Stream ingest;
  ingest.expect = Expect::kIngest;
  ingest.requests = &in.batches;
  ingest.rate = kIngestRate;
  ingest.count = in.stream;
  Stream write;
  write.expect = Expect::kIngest;
  write.requests = &in.batches;
  std::size_t next_batch = 0;
  auto write_batches = [&](std::size_t count, double* server_cpu_s) {
    write.first = next_batch;
    write.count = count;
    const Tally t =
        run_phase(port, {write}, kWriteLimitSeconds, server_cpu_s)[0];
    next_batch += t.attempted;
    return t;
  };
  auto admin = std::make_unique<Client>(port);
  const Request consolidate_req = {http_wire("POST", "/consolidate"), 0};
  // Returns the call's wall time; `server_cpu_s` receives the daemon's CPU
  // time during it (the process's, less this thread's).
  auto consolidate = [&](double& server_cpu_s) {
    Reply reply;
    ++r.attempted;
    const double process0 = process_cpu_s(), caller0 = thread_cpu_s();
    const Clock::time_point t0 = Clock::now();
    const bool sent = call(*admin, consolidate_req.wire, reply);
    const double s = secs(Clock::now() - t0);
    server_cpu_s =
        process_cpu_s() - process0 - (thread_cpu_s() - caller0);
    if (!sent) admin = std::make_unique<Client>(port);
    if (!sent || reply.status < 200 || reply.status >= 300) {
      ++r.failed;
    } else if (!valid_reply(Expect::kConsolidate, consolidate_req, reply)) {
      r.fail("a /consolidate answer did not confirm the consolidation");
    }
    return s;
  };

  // Per slice or round: the daemon's CPU cycles (the bounded metrics, each
  // converted at the clock rate measured just before) and the wall-clock
  // rates and latencies (reported only).
  std::vector<double> clock, search_kc, ingest_kc, consolidate_mc;
  std::vector<double> qps, rates, consolidations;
  Tally closed_all, open_all, ingest_all, wrote_all;
  for (int round = 0; round < cfg.rounds(); ++round) {
    const double hz = clock_hz();
    clock.push_back(hz / 1e9);
    double read_cpu = 0.0;
    const Tally c = run_phase(port, {read}, kClosedShare * S, &read_cpu)[0];
    read.first += c.attempted;
    qps.push_back(static_cast<double>(c.completed) / c.elapsed_s);
    search_kc.push_back(read_cpu * hz / 1e3 /
                        static_cast<double>(c.completed));
    closed_all.merge(c);
  }

  std::vector<Stream> streams = {search};
  if (w.mixed) {
    ingest.first = next_batch;
    next_batch += ingest.count;
    streams.push_back(ingest);
  }
  const std::vector<Tally> o = run_phase(port, streams, open_s);
  open_all = o[0];
  if (w.mixed) ingest_all = o[1];

  const Tally warm = write_batches(in.cycle, nullptr);
  std::size_t acked = warm.docs_acked;
  r.attempted += warm.attempted;
  r.failed += warm.failed();
  for (int round = 0; round < cfg.rounds(); ++round) {
    const double hz = clock_hz();
    clock.push_back(hz / 1e9);
    Tally cycles;
    double write_s = 0.0, write_cpu = 0.0;
    for (std::size_t n = 0; n < w.cycles; ++n) {
      // /consolidate with nothing pending does no work; on ingest-mixed the
      // stream can end its phase right after an automatic consolidation.
      if (!every_shard_pending(*d->index)) {
        wrote_all.merge(write_batches(1, nullptr));
      }
      double consolidate_cpu = 0.0, batches_cpu = 0.0;
      const double consolidate_s = consolidate(consolidate_cpu);
      const Tally t = write_batches(in.cycle, &batches_cpu);
      consolidations.push_back(consolidate_s);
      consolidate_mc.push_back(consolidate_cpu * hz / 1e6);
      write_s += consolidate_s + t.elapsed_s;
      write_cpu += batches_cpu;
      cycles.merge(t);
    }
    rates.push_back(static_cast<double>(cycles.docs_acked) / write_s);
    ingest_kc.push_back(write_cpu * hz / 1e3 /
                        static_cast<double>(cycles.docs_acked));
    wrote_all.merge(cycles);
  }
  account(r, "read-closed", closed_all);
  account(r, "read-open", open_all);
  account(r, "write-closed", wrote_all);
  acked += wrote_all.docs_acked;
  print_rounds("clock GHz", clock);
  print_rounds("search kcycles/query", search_kc);
  print_rounds("ingest kcycles/doc", ingest_kc);
  print_rounds("consolidate Mcycles", consolidate_mc);
  print_rounds("search q/s", qps);
  print_rounds("ingest docs/s", rates);
  print_rounds("consolidate s", consolidations);
  r.metrics["search_kcycles"] = median(search_kc);
  r.metrics["ingest_kcycles"] = median(ingest_kc);
  r.metrics["consolidate_mcycles"] = median(consolidate_mc);

  // Wall-clock numbers, here and in the latency lines below, are reported,
  // not bounded: on the reference host they moved between runs of one
  // commit by more than any bound allows (README.md).
  std::printf("# wall clock, medians of the rounds: search_qps=%.1f "
              "ingest_docs_per_s=%.1f consolidate_s=%.5f\n",
              median(qps), median(rates), median(consolidations));
  const std::vector<double>& lat = open_all.latency_ms;
  std::printf("# search latency: p50=%.4fms p95=%.4fms p99=%.4fms "
              "p999=%.4fms samples=%zu\n",
              percentile(lat, 0.50), percentile(lat, 0.95),
              percentile(lat, 0.99), percentile(lat, 0.999), lat.size());
  std::vector<double> lateness = open_all.lateness_ms;
  if (w.mixed) {
    account(r, "ingest-open", ingest_all);
    acked += ingest_all.docs_acked;
    lateness.insert(lateness.end(), ingest_all.lateness_ms.begin(),
                    ingest_all.lateness_ms.end());
  }
  const Tally& all = w.mixed ? ingest_all : wrote_all;
  std::printf("# ingest-to-visible: p50=%.3fms p90=%.3fms p99=%.3fms "
              "samples=%zu\n",
              percentile(all.latency_ms, 0.50),
              percentile(all.latency_ms, 0.90),
              percentile(all.latency_ms, 0.99), all.latency_ms.size());
  const double late_p99 = percentile(lateness, 0.99);
  std::printf("# generator lateness p99=%.3fms over %zu sends; run_valid=%s\n",
              late_p99, lateness.size(),
              late_p99 <= kLatenessLimitMs ? "yes" : "no (above 1 ms)");

  check_ingested(*d->index, corpus.base.size(), acked, r);
  d.reset();
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  return r;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Spans and counts recorded by this file around the public call of each
/// layer. Single-threaded: only the replay loop records.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root
    std::uint32_t request;
  };
  struct Count {
    const char* name;
    double value;
    std::uint32_t request;
  };

  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint32_t request) {
    spans_.push_back({name, now_ns(), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  void count(const char* name, double value, std::uint32_t request) {
    counts_.push_back({name, value, request});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Count>& counts() const { return counts_; }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"request\":%u}",
                   i ? "," : "", i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.request);
    }
    std::fprintf(f, "],\n\"counts\":[");
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const Count& c = counts_[i];
      std::fprintf(f, "%s\n{\"name\":\"%s\",\"value\":%.17g,\"request\":%u}",
                   i ? "," : "", c.name, c.value, c.request);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Count> counts_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int32_t parent, std::uint32_t request)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int32_t id_;
};

/// Shard-local rankings mapped to global ids, as the gather stage sees them.
struct ShardLists {
  std::vector<gather::ShardList> lists;
  /// rows[s] maps a global id to its row in shard s.
  std::vector<std::unordered_map<std::size_t, std::size_t>> rows;
};

ShardLists to_global(const core::ShardedSnapshot& view,
                     const std::vector<std::vector<core::ScoredDoc>>& local,
                     const std::vector<core::ScoreMoments>& moments) {
  ShardLists g;
  g.lists.resize(local.size());
  g.rows.resize(local.size());
  for (std::size_t s = 0; s < local.size(); ++s) {
    const std::vector<std::size_t>& ids = *view.shard(s).global_ids;
    for (const core::ScoredDoc& sd : local[s]) {
      g.lists[s].docs.push_back(ids[sd.doc]);
      g.lists[s].cosines.push_back(sd.cosine);
      g.rows[s].emplace(ids[sd.doc], sd.doc);
    }
    g.lists[s].bg_count = moments[s].count;
    g.lists[s].bg_mean = moments[s].mean;
    g.lists[s].bg_stdev = moments[s].stdev;
  }
  return g;
}

/// try_gather_batch's gather, one public call per stage, under a
/// "gather.rich" span: gather.fuse (gather::fuse), gather.profile
/// (reconstruct_term_profile per fused hit), gather.collapse
/// (collapse_near_duplicates) and gather.facets (shard_facets +
/// merge_facets). True when the result equals the library's `lib`.
bool replay_gather(Tracer& t, std::int32_t parent, std::uint32_t req,
                   const core::ShardedSnapshot& view, const ShardLists& g,
                   const core::SearchOptions& opts,
                   const core::ShardedSnapshot::GatherResult& lib) {
  Scope root(t, "gather.rich", parent, req);
  std::vector<gather::FusedHit> fused;
  {
    Scope sp(t, "gather.fuse", root.id(), req);
    fused = gather::fuse(g.lists, opts.fusion_options(), 0);
  }
  std::vector<gather::SparseTermVector> profiles;
  {
    Scope sp(t, "gather.profile", root.id(), req);
    for (const gather::FusedHit& h : fused) {
      const core::IndexSnapshot& snap = *view.shard(h.shard).snapshot;
      const core::SemanticSpace& space = snap.space();
      profiles.push_back(gather::reconstruct_term_profile(
          space.u, space.sigma, space.v, g.rows[h.shard].at(h.doc),
          snap.context().vocabulary()));
    }
  }
  std::vector<gather::CollapsedHit> collapsed;
  {
    Scope sp(t, "gather.collapse", root.id(), req);
    collapsed = gather::collapse_near_duplicates(fused, profiles,
                                                 opts.collapse_cosine);
    if (collapsed.size() > opts.z) collapsed.resize(opts.z);
  }
  std::vector<gather::Facet> facets;
  {
    Scope sp(t, "gather.facets", root.id(), req);
    std::vector<std::vector<std::size_t>> by_shard(g.lists.size());
    for (const gather::CollapsedHit& ch : collapsed) {
      by_shard[ch.rep.shard].push_back(g.rows[ch.rep.shard].at(ch.rep.doc));
    }
    std::vector<std::vector<gather::Facet>> shard_lists;
    for (std::size_t s = 0; s < by_shard.size(); ++s) {
      if (by_shard[s].empty()) continue;
      const core::IndexSnapshot& snap = *view.shard(s).snapshot;
      const core::SemanticSpace& space = snap.space();
      shard_lists.push_back(gather::shard_facets(
          space.u, space.sigma, space.v, snap.context().vocabulary(),
          by_shard[s], opts.facets));
    }
    facets = gather::merge_facets(shard_lists, opts.facets);
  }
  std::size_t folded = 0;
  for (const gather::CollapsedHit& ch : collapsed) {
    folded += ch.duplicates.size();
  }
  t.count("gather.fused", static_cast<double>(fused.size()), req);
  t.count("gather.folded", static_cast<double>(folded), req);

  bool same = lib.hits.size() == collapsed.size() &&
              lib.facets.size() == facets.size();
  for (std::size_t i = 0; same && i < collapsed.size(); ++i) {
    same = lib.hits[i].doc == collapsed[i].rep.doc &&
           lib.hits[i].score == collapsed[i].rep.score &&
           lib.hits[i].duplicates == collapsed[i].duplicates;
  }
  for (std::size_t i = 0; same && i < facets.size(); ++i) {
    same = lib.facets[i].term == facets[i].term &&
           lib.facets[i].weight == facets[i].weight;
  }
  return same;
}

/// The library's answers to one read, kept between the replay passes.
struct LibraryRead {
  std::optional<core::ShardedSnapshot> view;
  std::vector<core::ScoredDoc> ranked;
  core::ShardedSnapshot::GatherResult gathered;  ///< search-rich only
  std::string reply;                             ///< the HTTP answer's body
};

/// Replays read requests through the public call of every layer, in three
/// passes over each chunk of requests. Each pass runs its calls back to
/// back, as the unloaded phase does, so no pass times a cold server or cold
/// caches left by another. Spans, keyed by request id:
///
///   pass 1  http.roundtrip       the request over one keep-alive connection
///           serve.transport      then GET /healthz over the same one
///   pass 2  library              the calls the /search handler makes:
///             sharding.snapshot    ShardedIndex::snapshot
///             sharding.rank_batch  ShardedSnapshot::try_rank_batch
///             gather.gather_batch  try_gather_batch (search-rich)
///   pass 3  request              the same work one layer at a time:
///             serve.parse          HttpParser::feed + take of its bytes
///             serve.serialize      serve::serialize of the reply
///             scatter > shard      per shard, one after another:
///               text.weight          weighted_term_vector
///               core.project         QueryBatch::from_term_vectors (Eq. 6)
///               core.rank            BatchedRetriever::rank
///             core.exact           the same rank forced to kExact
///             sharding.merge       the merge rank_batch applies, or
///             gather.rich          the gather stages (search-rich)
///
/// Pass 3's answers are compared with pass 2's; a difference fails the run.
/// probe() replays the rich gather on the other workloads.
class ReadReplay {
 public:
  ReadReplay(Tracer& tracer, const Workload& w, const core::ShardedIndex& index,
             std::uint16_t port)
      : t_(tracer),
        index_(index),
        client_(port),
        rich_workload_(w.rich),
        opts_(search_options(w.rich)),
        rich_(search_options(true)) {}

  bool roundtrip(std::uint32_t req, const Request& wire, LibraryRead& out) {
    Reply reply;
    bool ok;
    {
      Scope s(t_, "http.roundtrip", -1, req);
      ok = call(client_, wire.wire, reply);
    }
    out.reply = std::move(reply.body);
    if (!ok || reply.status != 200) return false;
    // The same connection's cost for a request that does no search work:
    // loopback, event-loop wake-up, parse, dispatch and serialize.
    Scope s(t_, "serve.transport", -1, req);
    return call(client_, healthz_, reply) && reply.status == 200;
  }

  bool library(std::uint32_t req, const std::string& q, LibraryRead& out) {
    Scope root(t_, "library", -1, req);
    {
      Scope s(t_, "sharding.snapshot", root.id(), req);
      out.view.emplace(index_.snapshot());
    }
    {
      Scope s(t_, "sharding.rank_batch", root.id(), req);
      auto ranked = out.view->try_rank_batch({q}, opts_);
      if (!ranked.ok()) return false;
      out.ranked = std::move((*ranked)[0]);
    }
    if (rich_workload_) {
      Scope s(t_, "gather.gather_batch", root.id(), req);
      auto gathered = out.view->try_gather_batch({q}, opts_);
      if (!gathered.ok()) return false;
      out.gathered = std::move((*gathered)[0]);
    }
    return true;
  }

  bool layers(std::uint32_t req, const std::string& q, const Request& wire,
              const LibraryRead& lib) {
    Scope root(t_, "request", -1, req);
    const std::int32_t id = root.id();
    {
      Scope s(t_, "serve.parse", id, req);
      serve::HttpParser parser;
      parser.feed(wire.wire);
      if (!parser.complete()) return false;
      sink_ += parser.take().path.size();
    }
    {
      serve::HttpResponse resp;
      resp.body = lib.reply;
      Scope s(t_, "serve.serialize", id, req);
      sink_ += serve::serialize(resp).size();
    }
    const core::ShardedSnapshot& view = *lib.view;
    const std::size_t n = view.num_shards();
    const bool moments = opts_.merge != gather::MergePolicy::kRawCosine;
    std::vector<std::vector<core::ScoredDoc>> local(n);
    std::vector<core::ScoreMoments> shard_moments(n);
    std::vector<core::QueryBatch> batches(n);
    {
      Scope scatter(t_, "scatter", id, req);
      for (std::size_t s = 0; s < n; ++s) {
        const core::IndexSnapshot& snap = *view.shard(s).snapshot;
        Scope shard(t_, "shard", scatter.id(), req);
        la::Vector tv;
        {
          Scope sp(t_, "text.weight", shard.id(), req);
          tv = snap.context().weighted_term_vector(q);
        }
        core::QueryStats ps, rs;
        {
          Scope sp(t_, "core.project", shard.id(), req);
          batches[s] =
              core::QueryBatch::from_term_vectors(snap.space(), {tv}, &ps);
        }
        std::vector<core::ScoreMoments> m;
        const Clock::time_point r0 = Clock::now();
        {
          Scope sp(t_, "core.rank", shard.id(), req);
          local[s] =
              core::BatchedRetriever(snap.space_ptr(), snap.ann())
                  .rank(batches[s], opts_, &rs, moments ? &m : nullptr)[0];
        }
        const double rank_s = secs(Clock::now() - r0);
        if (moments) shard_moments[s] = m[0];
        t_.count("core.project_s", ps.project_seconds, req);
        t_.count("core.score_s", rs.score_seconds, req);
        t_.count("core.select_s", rank_s - rs.score_seconds, req);
        t_.count("core.project_flops", static_cast<double>(ps.flops), req);
        t_.count("core.sweep_flops", static_cast<double>(rs.flops), req);
        t_.count("core.docs_scored",
                 static_cast<double>(rs.docs_scored + rs.ann_docs_scanned),
                 req);
        t_.count("ann.docs_scanned", static_cast<double>(rs.ann_docs_scanned),
                 req);
        t_.count("ann.centroids_probed",
                 static_cast<double>(rs.ann_centroids_probed), req);
        t_.count("shard.docs", static_cast<double>(snap.space().num_docs()),
                 req);
      }
    }
    core::SearchOptions exact = opts_;
    exact.search = core::SearchMode::kExact;
    for (std::size_t s = 0; s < n; ++s) {
      const core::IndexSnapshot& snap = *view.shard(s).snapshot;
      Scope sp(t_, "core.exact", id, req);
      sink_ += core::BatchedRetriever(snap.space_ptr(), snap.ann())
                   .rank(batches[s], exact)[0]
                   .size();
    }
    const ShardLists g = to_global(view, local, shard_moments);
    if (rich_workload_) {
      return replay_gather(t_, id, req, view, g, opts_, lib.gathered);
    }
    std::vector<core::ScoredDoc> merged;
    {
      Scope sp(t_, "sharding.merge", id, req);
      if (moments) {
        for (const gather::FusedHit& h :
             gather::fuse(g.lists, opts_.fusion_options(), opts_.z)) {
          merged.push_back({h.doc, h.score});
        }
      } else {
        std::vector<std::vector<core::ScoredDoc>> global(n);
        for (std::size_t s = 0; s < n; ++s) {
          for (std::size_t j = 0; j < g.lists[s].docs.size(); ++j) {
            global[s].push_back({g.lists[s].docs[j], g.lists[s].cosines[j]});
          }
        }
        merged = core::merge_rankings(global, opts_.z);
      }
    }
    bool same = merged.size() == lib.ranked.size();
    for (std::size_t i = 0; same && i < merged.size(); ++i) {
      same = merged[i].doc == lib.ranked[i].doc &&
             merged[i].cosine == lib.ranked[i].cosine;
    }
    return same;
  }

  /// The rich gather on a workload whose requests do not ask for it: the
  /// gather.* metrics then describe the same stages on every workload.
  bool probe(std::uint32_t req, const std::string& q) {
    Scope root(t_, "probe", -1, req);
    const core::ShardedSnapshot view = index_.snapshot();
    Expected<std::vector<core::ShardedSnapshot::GatherResult>> lib =
        Status::Internal("unset");
    {
      Scope s(t_, "gather.gather_batch", root.id(), req);
      lib = view.try_gather_batch({q}, rich_);
    }
    if (!lib.ok()) return false;
    const std::size_t n = view.num_shards();
    std::vector<std::vector<core::ScoredDoc>> local(n);
    std::vector<core::ScoreMoments> moments(n);
    {
      Scope s(t_, "probe.scatter", root.id(), req);
      for (std::size_t sh = 0; sh < n; ++sh) {
        const core::IndexSnapshot& snap = *view.shard(sh).snapshot;
        const core::QueryBatch batch = core::QueryBatch::from_term_vectors(
            snap.space(), {snap.context().weighted_term_vector(q)});
        std::vector<core::ScoreMoments> m;
        local[sh] = core::BatchedRetriever(snap.space_ptr(), snap.ann())
                        .rank(batch, rich_, nullptr, &m)[0];
        moments[sh] = m[0];
      }
    }
    return replay_gather(t_, root.id(), req, view,
                         to_global(view, local, moments), rich_, (*lib)[0]);
  }

 private:
  Tracer& t_;
  const core::ShardedIndex& index_;
  Client client_;
  const std::string healthz_ = http_wire("GET", "/healthz");
  bool rich_workload_;
  core::SearchOptions opts_;
  core::SearchOptions rich_;
  std::size_t sink_ = 0;  ///< keeps replayed results observable
};

/// Durations (us) of every span named `name`.
std::vector<double> durations_us(const Tracer& t, std::string_view name) {
  std::vector<double> out;
  for (const Tracer::Span& s : t.spans()) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> counts(const Tracer& t, std::string_view name) {
  std::vector<double> out;
  for (const Tracer::Count& c : t.counts()) {
    if (name == c.name) out.push_back(c.value);
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Per-request split of the replayed reads along the critical path. Timed
/// directly: the transport, the snapshot, the slowest shard's weighting and
/// core work, and the merge or gather on the path. Residuals: the server's
/// own time (round trip minus snapshot and library call) and the fan-out
/// (library call minus the slowest shard and the merge or gather).
struct ReadPath {
  std::vector<double> self_us, snapshot_us, fanout_us, skew;
  std::vector<double> direct_us;  ///< sum of the directly timed spans
};

ReadPath read_path(const Tracer& t, bool rich) {
  const auto& spans = t.spans();
  std::vector<std::vector<std::size_t>> children(spans.size());
  std::unordered_map<std::uint32_t, std::size_t> roundtrip, transport, library;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
    const std::string_view name = spans[i].name;
    if (name == "http.roundtrip") roundtrip[spans[i].request] = i;
    if (name == "serve.transport") transport[spans[i].request] = i;
    if (name == "library") library[spans[i].request] = i;
  }
  auto dur = [&](std::size_t i) {
    return static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
  };
  auto child = [&](std::size_t i, std::string_view name) {
    for (std::size_t c : children[i]) {
      if (name == spans[c].name) return dur(c);
    }
    return 0.0;
  };
  ReadPath p;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) != "request") continue;
    const auto rt = roundtrip.find(spans[i].request);
    const auto tr = transport.find(spans[i].request);
    const auto lib = library.find(spans[i].request);
    if (rt == roundtrip.end() || tr == transport.end() ||
        lib == library.end()) {
      continue;
    }
    double slowest = 0.0, total = 0.0;
    std::size_t shards = 0;
    for (std::size_t c : children[i]) {
      if (std::string_view(spans[c].name) != "scatter") continue;
      for (std::size_t s : children[c]) {
        const double work = child(s, "text.weight") +
                            child(s, "core.project") + child(s, "core.rank");
        total += work;
        ++shards;
        slowest = std::max(slowest, work);
      }
    }
    if (shards == 0) continue;
    const double snapshot = child(lib->second, "sharding.snapshot");
    const double call = child(lib->second, rich ? "gather.gather_batch"
                                                : "sharding.rank_batch");
    const double on_path = child(i, rich ? "gather.rich" : "sharding.merge");
    p.self_us.push_back(dur(rt->second) - snapshot - call);
    p.snapshot_us.push_back(snapshot);
    p.fanout_us.push_back(call - slowest - on_path);
    p.skew.push_back(slowest * static_cast<double>(shards) / total);
    p.direct_us.push_back(dur(tr->second) + snapshot + slowest + on_path);
  }
  return p;
}

/// One write batch through the library: try_add per document, then flush.
/// Counts publishes, automatic consolidations and publish bytes from the
/// shard_infos deltas.
struct WriteTally {
  std::size_t docs = 0;
  std::size_t batches = 0;
  std::size_t rejected = 0;
  double publishes = 0.0;
  double publish_bytes = 0.0;
  double consolidations = 0.0;
};

bool replay_write(Tracer& t, core::ShardedIndex& index,
                  std::vector<text::Document> docs, std::uint32_t req,
                  WriteTally& w) {
  const auto before = index.shard_infos();
  {
    Scope batch(t, "write.batch", -1, req);
    for (text::Document& doc : docs) {
      Status st = Status::Ok();
      {
        Scope sp(t, "concurrent.enqueue", batch.id(), req);
        st = index.try_add(doc);
      }
      if (st.code() == StatusCode::kResourceExhausted) {
        ++w.rejected;
        st = index.add(std::move(doc));
      }
      if (!st.ok()) return false;
      ++w.docs;
    }
    Scope sp(t, "concurrent.flush", batch.id(), req);
    index.flush();
  }
  const auto after = index.shard_infos();
  for (std::size_t s = 0; s < after.size(); ++s) {
    const double pubs =
        static_cast<double>(after[s].publishes - before[s].publishes);
    w.publishes += pubs;
    w.consolidations +=
        static_cast<double>(after[s].consolidations - before[s].consolidations);
    w.publish_bytes +=
        pubs * static_cast<double>(after[s].terms + after[s].docs) *
        static_cast<double>(after[s].k) * sizeof(double);
  }
  ++w.batches;
  return true;
}

Result run_traced(const Workload& w, const RunConfig& cfg) {
  Result r;
  Tracer t;
  const Inputs in = make_inputs(w, cfg);
  const Corpus& corpus = in.corpus;
  const double S = cfg.seconds;

  std::unique_ptr<Daemon> d;
  {
    Scope s(t, "setup", -1, 0);
    std::string error;
    d = start_daemon(w, corpus.base, error);
    if (!d) {
      r.fail(error);
      return r;
    }
  }
  const std::uint16_t port = d->server->port();
  core::ShardedIndex& index = *d->index;

  // The ANN structure each shard's writer builds at publish, built again
  // from the shard's snapshot space (null, and fast, below the cutoff).
  {
    const core::ShardedSnapshot view = index.snapshot();
    const core::AnnOptions ann = sharding_options(w).concurrent.ann;
    for (std::size_t s = 0; s < view.num_shards(); ++s) {
      Scope sp(t, "ann.build", -1, 0);
      (void)core::AnnIndex::build(view.shard(s).snapshot->space(), ann, 0);
    }
  }

  warm_up(port, in, cfg);

  // Unloaded, untraced: one connection, one request at a time.
  Stream one;
  one.requests = &in.searches;
  one.count = SIZE_MAX;
  const Tally unloaded = run_phase(port, {one}, 0.15 * S)[0];
  account(r, "read-unloaded", unloaded);

  // The traced replay of the same stream from its first query, in chunks.
  // The replay's connection closes before the open-loop phase opens four.
  std::size_t replayed = 0, probed = 0, mismatches = 0;
  {
    ReadReplay replay(t, w, index, port);
    const Clock::time_point stop = Clock::now() + from_secs(0.25 * S);
    std::vector<LibraryRead> reads(kReplayChunk);
    while (replayed < kTracedRequests && Clock::now() < stop) {
      const std::size_t chunk =
          std::min(kReplayChunk, kTracedRequests - replayed);
      auto query = [&](std::size_t j) {
        return (replayed + j) % corpus.queries.size();
      };
      auto id = [&](std::size_t j) {
        return static_cast<std::uint32_t>(replayed + j);
      };
      std::vector<bool> ok(chunk, true);
      for (std::size_t j = 0; j < chunk; ++j) {
        ok[j] = replay.roundtrip(id(j), in.searches[query(j)], reads[j]);
      }
      for (std::size_t j = 0; j < chunk; ++j) {
        ok[j] = ok[j] &&
                replay.library(id(j), corpus.queries[query(j)], reads[j]);
      }
      for (std::size_t j = 0; j < chunk; ++j) {
        ok[j] = ok[j] && replay.layers(id(j), corpus.queries[query(j)],
                                       in.searches[query(j)], reads[j]);
        if (!ok[j]) ++mismatches;
      }
      replayed += chunk;
    }
    const Clock::time_point probe_stop = Clock::now() + from_secs(0.05 * S);
    while (!w.rich && probed < kTracedRequests &&
           (probed < 8 || Clock::now() < probe_stop)) {
      if (!replay.probe(static_cast<std::uint32_t>(probed),
                        corpus.queries[probed % corpus.queries.size()])) {
        ++mismatches;
      }
      ++probed;
    }
  }
  r.attempted += replayed;
  std::printf(
      "# traced replay: %zu requests, %zu gather probes, %zu mismatches\n",
      replayed, probed, mismatches);
  if (mismatches > 0 || replayed == 0) {
    r.fail("replayed layers disagree with the library's answers");
  }

  // Open loop at the workload's rate, reads only: queueing wait.
  Stream open;
  open.requests = &in.searches;
  open.connections = w.mixed ? 2 : kConnections;
  open.rate = w.rate;
  open.count = static_cast<std::size_t>(w.rate * 0.2 * S);
  const Tally loaded = run_phase(port, {open}, 0.2 * S)[0];
  account(r, "read-open", loaded);

  // The write path through the library, then three consolidations.
  WriteTally wt;
  std::size_t b = 0;
  bool writes_ok = true;
  const Clock::time_point stop = Clock::now() + from_secs(0.25 * S);
  while (writes_ok && b < in.batches.size() && Clock::now() < stop) {
    writes_ok = replay_write(
        t, index, ingest_batch(corpus, b),
        kWriteRequestBase + static_cast<std::uint32_t>(b), wt);
    ++b;
  }
  const WriteTally streamed = wt;
  writes_ok = writes_ok && index.consolidate().ok();
  for (int i = 0; i < 3 && writes_ok; ++i, ++b) {
    writes_ok = replay_write(
        t, index, ingest_batch(corpus, b),
        kWriteRequestBase + static_cast<std::uint32_t>(b), wt);
    Scope sp(t, "update.consolidate", -1, 0);
    writes_ok = writes_ok && index.consolidate().ok();
  }
  r.attempted += wt.docs;
  if (!writes_ok) r.fail("library write path failed");
  check_ingested(index, corpus.base.size(), wt.docs, r);

  const std::string path = std::string("trace_") + w.name + ".json";
  std::printf("# trace: %zu spans, %zu counts -> %s\n", t.spans().size(),
              t.counts().size(), path.c_str());
  if (!t.write(path)) r.fail("cannot write " + path);

  // Per-layer metrics, from the spans and counts.
  const ReadPath p = read_path(t, w.rich);
  const double rq = static_cast<double>(std::max<std::size_t>(replayed, 1));
  const double untraced_p50 = median(unloaded.latency_ms);
  const double traced_p50 = median(durations_us(t, "http.roundtrip")) / 1e3;
  auto& m = r.metrics;
  m["serve.parse_us"] = median(durations_us(t, "serve.parse"));
  m["serve.serialize_us"] = median(durations_us(t, "serve.serialize"));
  m["serve.transport_us"] = median(durations_us(t, "serve.transport"));
  m["serve.self_us"] = median(p.self_us);
  m["serve.wait_ms"] = median(loaded.latency_ms) - untraced_p50;
  m["text.weight_us"] = median(durations_us(t, "text.weight"));
  m["sharding.snapshot_us"] = median(p.snapshot_us);
  m["sharding.rank_batch_us"] = median(durations_us(t, "sharding.rank_batch"));
  m["sharding.fanout_us"] = median(p.fanout_us);
  m["sharding.shard_skew"] = median(p.skew);
  auto us = [](std::vector<double> v) {
    for (double& x : v) x *= 1e6;
    return v;
  };
  m["core.project_us"] = median(us(counts(t, "core.project_s")));
  m["core.score_us"] = median(us(counts(t, "core.score_s")));
  m["core.select_us"] = median(us(counts(t, "core.select_s")));
  m["core.exact_us"] = median(durations_us(t, "core.exact"));
  const double sweep_flops = sum(counts(t, "core.sweep_flops"));
  m["core.flops_per_query"] =
      (sum(counts(t, "core.project_flops")) + sweep_flops) / rq;
  const double scored = sum(counts(t, "core.docs_scored"));
  m["core.docs_scored_per_query"] = scored / rq;
  m["ann.docs_scanned_per_query"] = sum(counts(t, "ann.docs_scanned")) / rq;
  m["ann.centroids_probed_per_query"] =
      sum(counts(t, "ann.centroids_probed")) / rq;
  m["ann.scan_ratio"] = scored / std::max(1.0, sum(counts(t, "shard.docs")));
  m["ann.build_s"] = sum(durations_us(t, "ann.build")) / 1e6;
  const double score_s = sum(counts(t, "core.score_s"));
  m["la.sweep_gflops"] = score_s > 0 ? sweep_flops / score_s / 1e9 : 0.0;
  m["gather.fuse_us"] = median(durations_us(t, "gather.fuse"));
  m["gather.profile_us"] = median(durations_us(t, "gather.profile"));
  m["gather.collapse_us"] = median(durations_us(t, "gather.collapse"));
  m["gather.facets_us"] = median(durations_us(t, "gather.facets"));
  m["gather.collapsed_ratio"] = sum(counts(t, "gather.folded")) /
                                std::max(1.0, sum(counts(t, "gather.fused")));
  m["gather.gather_batch_us"] = median(durations_us(t, "gather.gather_batch"));
  m["concurrent.enqueue_us"] = median(durations_us(t, "concurrent.enqueue"));
  m["concurrent.flush_ms"] = median(durations_us(t, "concurrent.flush")) / 1e3;
  m["concurrent.publishes_per_batch"] =
      streamed.publishes /
      static_cast<double>(std::max<std::size_t>(streamed.batches, 1));
  m["concurrent.publish_bytes"] =
      streamed.publish_bytes / std::max(1.0, streamed.publishes);
  m["concurrent.rejected"] = static_cast<double>(wt.rejected);
  m["update.consolidate_s"] =
      median(durations_us(t, "update.consolidate")) / 1e6;
  m["update.auto_consolidations_per_1k_docs"] =
      1e3 * streamed.consolidations /
      static_cast<double>(std::max<std::size_t>(streamed.docs, 1));
  m["trace.coverage"] = median(p.direct_us) / 1e3 / untraced_p50;
  m["trace.overhead"] = traced_p50 / untraced_p50;
  std::printf("# unloaded p50 untraced=%.4fms traced=%.4fms\n", untraced_p50,
              traced_p50);
  d.reset();
  return r;
}

// ---------------------------------------------------------------------------
// Output, smoke test, main
// ---------------------------------------------------------------------------

/// Prints the metric table and the JSON line. A metric that is missing or
/// non-finite (taken from no samples) fails the run, and so does an
/// end-to-end metric that is not positive: none of them is 0 on a working
/// daemon. Per-layer counts may be 0, as ann.* is below the ANN cutoff.
void print_result(Result& r, bool trace) {
  const MetricDef* defs = trace ? kPerLayer : kEndToEnd;
  const std::size_t n = trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (std::size_t i = 0; i < n; ++i) {
    auto it = r.metrics.find(defs[i].name);
    double v = 0.0;
    if (it == r.metrics.end() || !std::isfinite(it->second)) {
      r.fail(std::string("metric not measured: ") + defs[i].name);
    } else if (!trace && !(it->second > 0.0)) {
      r.fail(std::string("end-to-end metric is not positive: ") +
             defs[i].name);
    } else {
      v = it->second;
    }
    std::printf("# metric %-40s %.6g %s\n", defs[i].name, v, defs[i].unit);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name, v, defs[i].unit);
    metrics += buf;
  }
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::size_t>(r.attempted, 1));
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("# error_rate %.6g (%zu of %zu)\n",
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              r.failed, r.attempted);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Steal and total CPU time of every vCPU so far, in clock ticks: the
/// "cpu" line of /proc/stat (user nice system idle iowait irq softirq steal).
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};
HostTicks host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  HostTicks t;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    stat >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

Result run(const Workload& w, const RunConfig& cfg) {
  print_fingerprint(w, cfg);
  const double before = clock_hz();
  const HostTicks ticks0 = host_ticks();
  Result r = cfg.trace ? run_traced(w, cfg) : run_end_to_end(w, cfg);
  const HostTicks ticks1 = host_ticks();
  // Steal slows the daemon beyond the time it takes away: the cycles per
  // operation rise with it (README.md), so it marks a run taken on a busy
  // host.
  std::printf("# host clock: %.3fGHz before, %.3fGHz after; steal %.1f%% of "
              "CPU time\n",
              before / 1e9, clock_hz() / 1e9,
              100.0 * (ticks1.steal - ticks0.steal) /
                  std::max(1.0, ticks1.total - ticks0.total));
  return r;
}

/// Every workload at toy size in both modes. Fails unless each run is
/// correct and prints exactly the metrics `benchmark_json` lists, with the
/// same units, and the file names exactly these workloads.
int run_smoke(const char* benchmark_json) {
  bool ok = true;
  auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      std::printf("# SMOKE FAILED: %s\n", what.c_str());
      ok = false;
    }
  };
  std::optional<Json> spec;
  if (benchmark_json != nullptr) {
    std::ifstream f(benchmark_json);
    std::stringstream ss;
    ss << f.rdbuf();
    spec = JsonReader(ss.str()).parse();
    expect(spec.has_value(), std::string("cannot parse ") + benchmark_json);
  }
  auto listed = [&](const char* key) {
    std::map<std::string, std::string> out;
    const Json* arr = spec ? spec->get(key) : nullptr;
    if (arr == nullptr) return out;
    for (const Json& item : arr->items) {
      const Json* name = item.get("name");
      const Json* unit = item.get("unit");
      if (name) out[name->string] = unit ? unit->string : "";
    }
    return out;
  };
  auto defined = [](const MetricDef* defs, std::size_t n) {
    std::map<std::string, std::string> out;
    for (std::size_t i = 0; i < n; ++i) out[defs[i].name] = defs[i].unit;
    return out;
  };
  if (spec) {
    expect(listed("end_to_end") == defined(kEndToEnd, std::size(kEndToEnd)),
           "BENCHMARK.json end_to_end differs from the metrics printed");
    expect(listed("per_layer") == defined(kPerLayer, std::size(kPerLayer)),
           "BENCHMARK.json per_layer differs from the metrics printed");
    std::map<std::string, std::string> names;
    for (const Workload& w : kWorkloads) names[w.name] = "";
    expect(listed("workloads") == names,
           "BENCHMARK.json workloads differ from the ones defined");
  }
  const Clock::time_point t0 = Clock::now();
  for (const Workload& w : kWorkloads) {
    for (bool trace : {false, true}) {
      RunConfig cfg;
      cfg.seconds = 0.6;
      cfg.trace = trace;
      cfg.smoke = true;
      Result r = run(w, cfg);
      print_result(r, trace);
      expect(r.correct, std::string(w.name) + (trace ? " traced" : "") +
                            " run failed its checks");
    }
  }
  std::printf("# smoke %s in %.1fs\n", ok ? "passed" : "FAILED",
              secs(Clock::now() - t0));
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: lsibench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1]\n       lsibench --smoke [BENCHMARK.json]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  const Workload* workload = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      return run_smoke(has_value ? argv[i + 1] : nullptr);
    } else if (arg == "--workload" && has_value) {
      const std::string_view name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) return usage();
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      const std::string_view v = argv[++i];
      if (v != "0" && v != "1") return usage();
      cfg.trace = v == "1";
    } else {
      return usage();
    }
  }
  if (workload == nullptr || !(cfg.seconds > 0.0) || cfg.seconds > 600.0) {
    return usage();
  }
  Result r = run(*workload, cfg);
  print_result(r, cfg.trace);
  return r.correct ? 0 : 1;
}

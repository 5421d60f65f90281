// HttpServer integration tests over real loopback sockets: the command
// surface, session pinning and paging across consolidation (the
// read-stability regression of docs/SERVING.md), admission control, and
// graceful drain. Each fixture builds a small sharded index, starts the
// daemon on an ephemeral port, and speaks HTTP/1.1 through TestClient.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lsi/lsi.hpp"
#include "obs/schema.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "synth/corpus.hpp"
#include "test_client.hpp"

namespace {

using namespace lsi;
using lsi::serve::testing::ClientResponse;
using lsi::serve::testing::TestClient;

std::string encode_query(const std::string& text) {
  std::string out;
  for (char c : text) out += (c == ' ') ? '+' : c;
  return out;
}

/// Extracts the value of a top-level "key":"value" string field.
std::string json_string_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return {};
  const std::size_t begin = pos + needle.size();
  return body.substr(begin, body.find('"', begin) - begin);
}

/// Extracts the value of a numeric/bool field (up to the next , } ]).
std::string json_scalar_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return {};
  const std::size_t begin = pos + needle.size();
  return body.substr(begin, body.find_first_of(",}]", begin) - begin);
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::CorpusSpec spec;
    spec.topics = 3;
    spec.concepts_per_topic = 5;
    spec.docs_per_topic = 20;  // 60 docs
    spec.queries_per_topic = 2;
    spec.seed = 4242;
    corpus_ = synth::generate_corpus(spec);

    core::ShardingOptions sopts;
    sopts.num_shards = 2;
    sopts.index.k = 8;
    sopts.concurrent.queue_capacity = 64;
    auto built = core::ShardedIndex::try_build(corpus_.docs, sopts);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    index_ = std::make_unique<core::ShardedIndex>(std::move(*built));

    serve::ServerOptions opts;
    opts.default_page_size = 5;
    server_ = std::make_unique<serve::HttpServer>(*index_, opts);
    ASSERT_TRUE(server_->start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_) server_->drain();
    if (index_) index_->shutdown();
  }

  std::string query_text() const { return corpus_.queries.front().text; }

  synth::SyntheticCorpus corpus_;
  std::unique_ptr<core::ShardedIndex> index_;
  std::unique_ptr<serve::HttpServer> server_;
};

// ---------------------------------------------------------------------------
// Command surface
// ---------------------------------------------------------------------------

TEST_F(ServerTest, HealthzAnswersOk) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const ClientResponse resp = client.request("GET", "/healthz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);
  // R=1: every shard reports its single replica healthy.
  EXPECT_NE(resp.body.find("\"replicas_per_shard\":1"), std::string::npos);
}

TEST_F(ServerTest, SessionlessSearchRanksDocs) {
  TestClient client(server_->port());
  const ClientResponse resp = client.request(
      "GET", "/search?q=" + encode_query(query_text()) + "&top=7");
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_NE(resp.body.find("\"results\":[{\"doc\":"), std::string::npos);
  EXPECT_NE(resp.body.find("\"generations\":["), std::string::npos);
  // top=7 caps the ranking.
  std::size_t hits = 0, pos = 0;
  while ((pos = resp.body.find("\"doc\":", pos)) != std::string::npos) {
    ++hits;
    pos += 6;
  }
  EXPECT_LE(hits, 7u);
  EXPECT_GT(hits, 0u);
}

TEST_F(ServerTest, SearchWithLabelsResolvesThem) {
  TestClient client(server_->port());
  const ClientResponse resp = client.request(
      "GET", "/search?q=" + encode_query(query_text()) + "&top=3");
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_NE(resp.body.find("\"label\":\""), std::string::npos);
}

/// The "results" array of a /search body, verbatim.
std::string results_of(const std::string& body) {
  const std::size_t begin = body.find("\"results\":");
  const std::size_t end = body.find(",\"facets\":");
  if (begin == std::string::npos || end == std::string::npos) return {};
  return body.substr(begin, end - begin);
}

TEST_F(ServerTest, OneResponseSchemaForEveryOptionWithAndWithoutSession) {
  TestClient client(server_->port());
  const std::string q = "/search?q=" + encode_query(query_text());
  const struct {
    const char* knobs;
    const char* top;
  } rows[] = {
      {"", "&top=5"},
      {"&exact=1", "&top=5"},
      {"&merge=zscore", "&top=5"},
      {"&merge=rrf", "&top=5"},
      // Collapse draws duplicates from each shard's top-`depth` candidates,
      // and a session ranks at depth max_ranking (1000 here), so its first
      // page equals a sessionless answer of that depth (docs/SERVING.md).
      {"&collapse=0.9", "&top=1000"},
      {"&facets=3", "&top=5"},
  };
  for (const auto& row : rows) {
    const std::string knobs = std::string(row.knobs) + row.top;
    const ClientResponse plain = client.request("GET", q + knobs);
    ASSERT_EQ(plain.status, 200) << knobs;
    const Status plain_ok = obs::validate_search_json(plain.body, false);
    EXPECT_TRUE(plain_ok.ok()) << knobs << ": " << plain_ok.to_string();

    const ClientResponse created = client.request("POST", "/session");
    ASSERT_EQ(created.status, 201);
    const std::string token = json_string_field(created.body, "session");
    const ClientResponse paged =
        client.request("GET", q + knobs + "&session=" + token);
    ASSERT_EQ(paged.status, 200) << knobs;
    const Status paged_ok = obs::validate_search_json(paged.body, true);
    EXPECT_TRUE(paged_ok.ok()) << knobs << ": " << paged_ok.to_string();

    // The session's first page is the sessionless answer.
    ASSERT_FALSE(results_of(plain.body).empty()) << plain.body;
    EXPECT_EQ(results_of(paged.body), results_of(plain.body))
        << knobs << "\nsession:     " << paged.body
        << "\nsessionless: " << plain.body;
    const bool want_facets = std::string(row.knobs) == "&facets=3";
    for (const std::string* body : {&plain.body, &paged.body}) {
      EXPECT_EQ(body->find("\"facets\":[{\"term\":") != std::string::npos,
                want_facets)
          << knobs << ": " << *body;
    }
    EXPECT_EQ(client.request("DELETE", "/session?session=" + token).status,
              200);
  }
}

TEST_F(ServerTest, SearchWithoutQueryIs400) {
  TestClient client(server_->port());
  EXPECT_EQ(client.request("GET", "/search").status, 400);
}

TEST_F(ServerTest, UnknownPathIs404AndWrongMethodIs405) {
  TestClient client(server_->port());
  EXPECT_EQ(client.request("GET", "/no-such").status, 404);
  const ClientResponse resp = client.request("POST", "/search?q=x");
  EXPECT_EQ(resp.status, 405);
  EXPECT_EQ(resp.header("Allow"), "GET");
}

TEST_F(ServerTest, MalformedRequestGets400AndClose) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.send_raw("NONSENSE\r\n\r\n"));
  const ClientResponse resp = client.read_response();
  EXPECT_EQ(resp.status, 400);
  EXPECT_TRUE(resp.closed);
}

TEST_F(ServerTest, UnsupportedMethodTokenGets405AtParserLevel) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.send_raw("BREW /search?q=x HTTP/1.1\r\n\r\n"));
  const ClientResponse resp = client.read_response();
  EXPECT_EQ(resp.status, 405);
  EXPECT_TRUE(resp.closed);
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.send_raw(
      "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /no-such HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n"));
  EXPECT_EQ(client.read_response().status, 200);
  EXPECT_EQ(client.read_response().status, 404);
  EXPECT_EQ(client.read_response().status, 200);
}

TEST_F(ServerTest, StatsStreamsChunkedJson) {
  TestClient client(server_->port());
  (void)client.request("GET", "/healthz");
  const ClientResponse resp = client.request("GET", "/stats");
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.header("Transfer-Encoding"), "chunked");
  EXPECT_EQ(json_string_field(resp.body, "state"), "running");
  EXPECT_NE(resp.body.find("\"shards\":[{"), std::string::npos);
  EXPECT_NE(resp.body.find("\"requests\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sessions: paging, read-your-writes, pin stability across consolidation
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SessionPagesThroughOneRanking) {
  TestClient client(server_->port());
  const ClientResponse created = client.request("POST", "/session");
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string token = json_string_field(created.body, "session");
  ASSERT_FALSE(token.empty());

  const std::string q = encode_query(query_text());
  const ClientResponse page1 = client.request(
      "GET", "/search?q=" + q + "&session=" + token + "&top=4");
  ASSERT_EQ(page1.status, 200) << page1.body;
  EXPECT_EQ(json_scalar_field(page1.body, "cursor"), "4");
  EXPECT_EQ(json_scalar_field(page1.body, "more"), "true");

  // No q: continue the cached ranking from the cursor.
  const ClientResponse page2 =
      client.request("GET", "/search?session=" + token + "&top=4");
  ASSERT_EQ(page2.status, 200) << page2.body;
  EXPECT_EQ(json_scalar_field(page2.body, "cursor"), "8");

  // Pages must not overlap.
  EXPECT_NE(page1.body.substr(0, page1.body.find("cursor")),
            page2.body.substr(0, page2.body.find("cursor")));

  // Explicit cursor rewind replays page 1's slice.
  const ClientResponse rewound = client.request(
      "GET", "/search?session=" + token + "&cursor=0&top=4");
  ASSERT_EQ(rewound.status, 200);
  EXPECT_EQ(json_scalar_field(rewound.body, "cursor"), "4");
  // Same pinned view, same query, same slice: byte-identical replay.
  EXPECT_EQ(rewound.body, page1.body);

  EXPECT_EQ(client.request("DELETE", "/session?session=" + token).status, 200);
  EXPECT_EQ(client
                .request("GET", "/search?session=" + token + "&q=" + q)
                .status,
            404);
}

TEST_F(ServerTest, UnknownSessionIs404) {
  TestClient client(server_->port());
  EXPECT_EQ(client.request("GET", "/search?session=bogus&q=x").status, 404);
  EXPECT_EQ(client.request("DELETE", "/session?session=bogus").status, 404);
}

TEST_F(ServerTest, SessionSurvivesConsolidationWhilePaging) {
  // THE pin regression: a session pages a ranking while a consolidation
  // retires and republishes every shard snapshot underneath it. The
  // session's pages must keep coming from the pinned (pre-consolidation)
  // generation vector — stable cursors, no mixed generations — while new
  // sessionless queries see the post-consolidation generations.
  TestClient client(server_->port());
  const ClientResponse created = client.request("POST", "/session");
  ASSERT_EQ(created.status, 201);
  const std::string token = json_string_field(created.body, "session");

  // Ingest extra documents so the consolidation has pending folds to chew.
  std::string tsv;
  for (int i = 0; i < 24; ++i) {
    tsv += "extra" + std::to_string(i) + "\t" + corpus_.docs[i % 8].body +
           "\n";
  }
  ASSERT_EQ(client.request("POST", "/ingest?wait=1", tsv).status, 202);

  const std::string q = encode_query(query_text());
  const ClientResponse page1 = client.request(
      "GET", "/search?q=" + q + "&session=" + token + "&top=3");
  ASSERT_EQ(page1.status, 200);
  const std::string pinned_gens = json_scalar_field(page1.body, "generations");

  const ClientResponse consolidated =
      client.request("POST", "/consolidate");
  ASSERT_EQ(consolidated.status, 200) << consolidated.body;

  // Page 2 after consolidation: same pinned generations, cursor advanced.
  const ClientResponse page2 =
      client.request("GET", "/search?session=" + token + "&top=3");
  ASSERT_EQ(page2.status, 200) << page2.body;
  EXPECT_EQ(json_scalar_field(page2.body, "generations"), pinned_gens);
  EXPECT_EQ(json_scalar_field(page2.body, "cursor"), "6");

  // A sessionless query answers from the NEW generations.
  const ClientResponse fresh = client.request("GET", "/search?q=" + q);
  ASSERT_EQ(fresh.status, 200);
  EXPECT_NE(json_scalar_field(fresh.body, "generations"), pinned_gens);
}

TEST_F(ServerTest, IngestWithWaitGivesReadYourWrites) {
  TestClient client(server_->port());
  const ClientResponse created = client.request("POST", "/session");
  ASSERT_EQ(created.status, 201);
  const std::string token = json_string_field(created.body, "session");

  const std::string marker_body = corpus_.docs[0].body;
  const ClientResponse ingested = client.request(
      "POST", "/ingest?session=" + token + "&wait=1",
      "rywdoc\t" + marker_body + "\n");
  ASSERT_EQ(ingested.status, 202) << ingested.body;
  EXPECT_EQ(json_scalar_field(ingested.body, "accepted"), "1");
  EXPECT_EQ(json_scalar_field(ingested.body, "pin_refreshed"), "true");

  // The refreshed pin sees the new document: its global id is the corpus
  // size (ids are assigned in arrival order).
  const ClientResponse found = client.request(
      "GET", "/search?session=" + token + "&q=" +
                 encode_query(marker_body.substr(0, 40)) + "&top=" +
                 std::to_string(corpus_.docs.size() + 1));
  ASSERT_EQ(found.status, 200);
  EXPECT_NE(
      found.body.find("\"doc\":" + std::to_string(corpus_.docs.size())),
      std::string::npos)
      << found.body;
}

TEST_F(ServerTest, IngestRejectsGarbage) {
  TestClient client(server_->port());
  EXPECT_EQ(client.request("POST", "/ingest").status, 400);  // empty body
  const ClientResponse resp =
      client.request("POST", "/ingest", "no tab separator here\n");
  EXPECT_EQ(resp.status, 400);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ServerAdmission, IngestBackpressureBecomes429WithRetryAfter) {
  synth::CorpusSpec spec;
  spec.topics = 2;
  spec.concepts_per_topic = 4;
  spec.docs_per_topic = 12;
  spec.seed = 99;
  auto corpus = synth::generate_corpus(spec);

  core::ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = 6;
  sopts.concurrent.queue_capacity = 2;  // tiny: one bulk POST must overflow
  auto built = core::ShardedIndex::try_build(corpus.docs, sopts);
  ASSERT_TRUE(built.ok()) << built.status().to_string();

  serve::HttpServer server(*built);
  ASSERT_TRUE(server.start().ok());

  std::string tsv;
  for (int i = 0; i < 300; ++i) {
    tsv += "bulk" + std::to_string(i) + "\t" + corpus.docs[i % 8].body + "\n";
  }
  TestClient client(server.port());
  const ClientResponse resp = client.request("POST", "/ingest", tsv);
  EXPECT_EQ(resp.status, 429) << resp.body;
  EXPECT_FALSE(resp.header("Retry-After").empty());
  // Partial progress is reported, not lost.
  EXPECT_FALSE(json_scalar_field(resp.body, "accepted").empty());
  EXPECT_FALSE(json_scalar_field(resp.body, "rejected_line").empty());
  EXPECT_GE(server.stats().backpressure_429, 1u);

  server.drain();
  built->shutdown();
}

TEST(ServerAdmission, ConnectionTableOverflowGets503) {
  synth::CorpusSpec spec;
  spec.topics = 2;
  spec.concepts_per_topic = 4;
  spec.docs_per_topic = 10;
  spec.seed = 7;
  auto corpus = synth::generate_corpus(spec);
  core::ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = 6;
  auto built = core::ShardedIndex::try_build(corpus.docs, sopts);
  ASSERT_TRUE(built.ok());

  serve::ServerOptions opts;
  opts.max_connections = 1;
  serve::HttpServer server(*built, opts);
  ASSERT_TRUE(server.start().ok());

  TestClient first(server.port());
  ASSERT_TRUE(first.connected());
  ASSERT_EQ(first.request("GET", "/healthz").status, 200);  // conn registered

  TestClient second(server.port());
  ASSERT_TRUE(second.connected());
  const ClientResponse resp = second.read_response();  // refused at the door
  EXPECT_EQ(resp.status, 503);
  EXPECT_FALSE(resp.header("Retry-After").empty());

  server.drain();
  built->shutdown();
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

TEST_F(ServerTest, ShutdownEndpointDrainsAndReleasesPins) {
  TestClient client(server_->port());
  const ClientResponse created = client.request("POST", "/session");
  ASSERT_EQ(created.status, 201);
  EXPECT_GE(index_->pinned(), 1u);

  const ClientResponse resp = client.request("POST", "/shutdown");
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.closed);
  client.wait_peer_close();

  server_->join();
  EXPECT_TRUE(server_->stopped());
  // Every session died with the drain; its pins went with it.
  EXPECT_EQ(index_->pinned(), 0u);

  // New connections are refused once stopped.
  TestClient late(server_->port());
  ClientResponse nothing = late.read_response();
  EXPECT_TRUE(nothing.closed);
}

TEST_F(ServerTest, RequestDrainFromOwnerThreadCompletes) {
  TestClient client(server_->port());
  ASSERT_EQ(client.request("GET", "/healthz").status, 200);
  server_->drain();
  EXPECT_TRUE(server_->stopped());
  const serve::HttpServer::Stats stats = server_->stats();
  EXPECT_EQ(stats.connections_open, 0u);
  EXPECT_EQ(stats.sessions_open, 0u);
}

// ---------------------------------------------------------------------------
// Search knobs: nprobe / recall / exact / deadline_ms validation
// ---------------------------------------------------------------------------

TEST_F(ServerTest, InvalidKnobCombinationsAnswer400WithPreciseMessages) {
  TestClient client(server_->port());
  const std::string q = "/search?q=" + encode_query(query_text());
  const struct {
    const char* params;
    const char* message;
  } cases[] = {
      {"&exact=2", "exact must be 0 or 1"},
      {"&exact=1&nprobe=3", "nprobe cannot be combined with exact=1"},
      {"&exact=1&recall=0.9", "recall cannot be combined with exact=1"},
      {"&nprobe=3&recall=0.9", "nprobe and recall are mutually exclusive"},
      {"&nprobe=0", "nprobe must be a positive integer"},
      {"&nprobe=abc", "nprobe must be a positive integer"},
      {"&recall=0", "recall must be a number in (0, 1]"},
      {"&recall=1.5", "recall must be a number in (0, 1]"},
      {"&recall=x", "recall must be a number in (0, 1]"},
      {"&recall=nan", "recall must be a number in (0, 1]"},
      {"&merge=rrf&rrf_k=inf", "rrf_k must be a positive finite number"},
      {"&merge=rrf&rrf_k=1e400", "rrf_k must be a positive finite number"},
      {"&deadline_ms=0", "deadline_ms must be a positive integer"},
      {"&deadline_ms=99999999999999999999",
       "deadline_ms must be a positive integer"},
      {"&deadline_ms=10000000000000", "deadline_ms must be a positive integer"},
      {"&top=0", "top must be a positive integer"},
      {"&top=abc", "top must be a positive integer"},
  };
  for (const auto& c : cases) {
    const ClientResponse resp = client.request("GET", q + c.params);
    EXPECT_EQ(resp.status, 400) << c.params;
    EXPECT_NE(json_string_field(resp.body, "error").find(c.message),
              std::string::npos)
        << c.params << " -> " << resp.body;
  }
  // The valid spellings all answer 200 (no structure on this small corpus:
  // kAuto/kPruned fall back to the exact scan, never an error).
  for (const char* params :
       {"&exact=0", "&exact=1", "&nprobe=4", "&recall=0.9", "&recall=1",
        "&deadline_ms=60000"}) {
    EXPECT_EQ(client.request("GET", q + params).status, 200) << params;
  }
}

TEST_F(ServerTest, StatsReportsExactFallbackBelowCutoff) {
  // The fixture corpus (60 docs) is far below the default ann.exact_cutoff:
  // every shard row must say so instead of pretending a structure exists.
  TestClient client(server_->port());
  const ClientResponse resp = client.request("GET", "/stats");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"ann\":{\"centroids\":0,\"generation\":0,"
                           "\"exact_fallback\":true}"),
            std::string::npos)
      << resp.body;
}

/// Same daemon, but the index builds a cluster-pruned structure per shard
/// (ann.exact_cutoff = 0 admits the tiny test corpus).
class AnnServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::CorpusSpec spec;
    spec.topics = 4;
    spec.concepts_per_topic = 6;
    spec.docs_per_topic = 30;  // 120 docs
    spec.queries_per_topic = 2;
    spec.seed = 777;
    corpus_ = synth::generate_corpus(spec);

    core::ShardingOptions sopts;
    sopts.num_shards = 2;
    sopts.index.k = 10;
    sopts.concurrent.ann.exact_cutoff = 0;
    auto built = core::ShardedIndex::try_build(corpus_.docs, sopts);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    index_ = std::make_unique<core::ShardedIndex>(std::move(*built));

    server_ = std::make_unique<serve::HttpServer>(*index_);
    ASSERT_TRUE(server_->start().ok());
  }

  void TearDown() override {
    if (server_) server_->drain();
    if (index_) index_->shutdown();
  }

  synth::SyntheticCorpus corpus_;
  std::unique_ptr<core::ShardedIndex> index_;
  std::unique_ptr<serve::HttpServer> server_;
};

TEST_F(AnnServerTest, StatsReportsPerShardAnnState) {
  TestClient client(server_->port());
  const ClientResponse resp = client.request("GET", "/stats");
  ASSERT_EQ(resp.status, 200);
  // Both shard rows carry a live structure: no fallback, centroids > 0.
  EXPECT_EQ(resp.body.find("\"exact_fallback\":true"), std::string::npos)
      << resp.body;
  std::size_t rows = 0, pos = 0;
  while ((pos = resp.body.find("\"ann\":{\"centroids\":", pos)) !=
         std::string::npos) {
    pos += 20;
    EXPECT_NE(resp.body[pos], '0');  // at least one centroid
    ++rows;
  }
  EXPECT_EQ(rows, 2u);
}

TEST_F(AnnServerTest, StatsGenerationsAgreeWithSearchView) {
  // Satellite consistency contract: the generations a /search answers from
  // and the per-shard generations /stats prints both come from a pinned
  // ShardedSnapshot — with no writes in between they must be equal.
  TestClient client(server_->port());
  const ClientResponse search = client.request(
      "GET", "/search?q=" + encode_query(corpus_.queries[0].text) + "&top=3");
  ASSERT_EQ(search.status, 200);
  const std::string gens = json_scalar_field(search.body, "generations");
  ASSERT_FALSE(gens.empty());

  const ClientResponse stats = client.request("GET", "/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"generations\":" + gens), std::string::npos)
      << "search saw " << gens << " but /stats says: " << stats.body;
}

TEST_F(AnnServerTest, FullProbeSearchBitIdenticalToExactOverHttp) {
  // The acceptance contract end-to-end: nprobe far above every shard's
  // centroid count must reproduce the exact=1 ranking bit for bit in the
  // serialized response body (same docs, same printed cosines, same order).
  TestClient client(server_->port());
  for (const auto& q : corpus_.queries) {
    const std::string base =
        "/search?q=" + encode_query(q.text) + "&top=10";
    const ClientResponse exact = client.request("GET", base + "&exact=1");
    const ClientResponse pruned =
        client.request("GET", base + "&nprobe=1048576");
    ASSERT_EQ(exact.status, 200);
    ASSERT_EQ(pruned.status, 200);
    EXPECT_EQ(exact.body, pruned.body) << q.text;
  }
}

TEST_F(AnnServerTest, SessionReRanksWhenKnobsChange) {
  // A pinned session caches its ranking keyed on (query, knobs): switching
  // from a 1-probe ranking to exact=1 must re-rank, not page the stale
  // candidate list.
  TestClient client(server_->port());
  const ClientResponse created = client.request("POST", "/session");
  ASSERT_EQ(created.status, 201);
  const std::string token = json_string_field(created.body, "session");
  const std::string q = encode_query(corpus_.queries[0].text);

  const ClientResponse narrow = client.request(
      "GET", "/search?q=" + q + "&session=" + token + "&top=5&nprobe=1");
  ASSERT_EQ(narrow.status, 200);

  // Same query, exact knobs: the cursor restarts because the ranking is
  // regenerated (page starts at 0 again rather than continuing).
  const ClientResponse exact = client.request(
      "GET", "/search?q=" + q + "&session=" + token + "&top=5&exact=1");
  ASSERT_EQ(exact.status, 200);
  EXPECT_EQ(json_scalar_field(exact.body, "cursor"),
            json_scalar_field(narrow.body, "cursor"))
      << "knob change did not restart the ranking: " << exact.body;
}

TEST_F(AnnServerTest, GenerousDeadlineAnswers200) {
  // Deadline expiry itself is timing-dependent over loopback, so the 504
  // mapping is covered at the library level (ann_pruning_test); here the
  // happy path: a generous per-request deadline is accepted and answered.
  TestClient client(server_->port());
  const ClientResponse ok = client.request(
      "GET", "/search?q=" + encode_query(corpus_.queries[0].text) +
                 "&deadline_ms=60000");
  EXPECT_EQ(ok.status, 200);
}

// ---------------------------------------------------------------------------
// Response bodies: one JSON writer behind every endpoint and status
// ---------------------------------------------------------------------------

std::uint64_t sink_counter(const obs::Sink& sink, const std::string& name) {
  for (const auto& [counter, value] : sink.metrics().counters()) {
    if (counter == name) return value;
  }
  return 0;
}

TEST(ServerBodies, EveryEndpointAndStatusAnswersWellFormedJson) {
  synth::CorpusSpec spec;
  spec.topics = 3;
  spec.concepts_per_topic = 5;
  spec.docs_per_topic = 16;
  spec.queries_per_topic = 1;
  spec.seed = 1818;
  const auto corpus = synth::generate_corpus(spec);

  core::ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.replicas = 2;
  sopts.write_quorum = 2;  // one ejected replica refuses that shard's writes
  sopts.index.k = 6;
  auto built = core::ShardedIndex::try_build(corpus.docs, sopts);
  ASSERT_TRUE(built.ok()) << built.status().to_string();
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  serve::HttpServer server(*built);
  ASSERT_TRUE(server.start().ok());

  TestClient client(server.port());
  const std::string q = encode_query(corpus.queries.front().text);
  auto expect_json = [&](const std::string& method, const std::string& target,
                         int status, const std::string& body = {}) {
    const ClientResponse resp = client.request(method, target, body);
    EXPECT_EQ(resp.status, status) << method << " " << target << ": "
                                   << resp.body;
    const Status valid = obs::validate_json(resp.body);
    EXPECT_TRUE(valid.ok()) << method << " " << target << ": "
                            << valid.to_string() << "\n" << resp.body;
    return resp;
  };

  expect_json("GET", "/healthz", 200);
  const std::string token =
      json_string_field(expect_json("POST", "/session", 201).body, "session");
  ASSERT_FALSE(token.empty());
  expect_json("POST", "/ingest?session=" + token + "&wait=1", 202,
              "walk\t" + corpus.docs[0].body + "\n");
  for (const std::string& search :
       {"/search?q=" + q,
        "/search?q=" + q + "&merge=zscore&collapse=0.9&facets=3",
        "/search?q=" + q + "&session=" + token + "&top=3"}) {
    const ClientResponse resp = expect_json("GET", search, 200);
    EXPECT_TRUE(obs::validate_search_json(
                    resp.body, search.find("session=") != std::string::npos)
                    .ok())
        << resp.body;
  }
  expect_json("POST", "/consolidate", 200);
  expect_json("GET", "/stats", 200);
  expect_json("GET", "/search", 400);
  expect_json("GET", "/search?q=" + q + "&top=0", 400);
  expect_json("POST", "/replica/eject", 400);
  expect_json("GET", "/no/such/path", 404);
  expect_json("GET", "/search?session=bogus&q=x", 404);
  expect_json("POST", "/search?q=x", 405);
  expect_json("DELETE", "/healthz", 405);

  // Replication ladder: degraded 200, a quorum 503 mid-body, unavailable 503,
  // a 409 conflict, and back.
  expect_json("POST", "/replica/eject?shard=0&replica=1", 200);
  expect_json("POST", "/replica/eject?shard=0&replica=1", 409);
  EXPECT_EQ(json_string_field(expect_json("GET", "/healthz", 200).body,
                              "status"),
            "degraded");
  std::string tsv;
  for (int i = 0; i < 8; ++i) {
    tsv += "quorum" + std::to_string(i) + "\t" + corpus.docs[i].body + "\n";
  }
  const ClientResponse refused = expect_json("POST", "/ingest", 503, tsv);
  EXPECT_FALSE(json_scalar_field(refused.body, "accepted").empty());
  EXPECT_FALSE(json_scalar_field(refused.body, "rejected_line").empty());
  expect_json("POST", "/replica/eject?shard=0&replica=0", 200);
  expect_json("GET", "/healthz", 503);
  expect_json("POST", "/replica/readmit?shard=0&replica=0", 200);
  expect_json("POST", "/replica/readmit?shard=0&replica=1", 200);

  expect_json("DELETE", "/session?session=" + token, 200);
  // The accepted documents of the partial refusal are counted once, in
  // /stats and in the sink alike.
  EXPECT_EQ(sink_counter(sink, "serve.docs_ingested"),
            server.stats().docs_ingested);
  EXPECT_EQ(server.stats().quorum_503, 1u);

  // A request the parser rejects gets a JSON error body too.
  TestClient garbage(server.port());
  ASSERT_TRUE(garbage.send_raw("NOT A REQUEST\r\n\r\n"));
  const ClientResponse parse_error = garbage.read_response();
  EXPECT_EQ(parse_error.status, 400);
  EXPECT_TRUE(obs::validate_json(parse_error.body).ok()) << parse_error.body;

  const ClientResponse shutdown = expect_json("POST", "/shutdown", 200);
  EXPECT_TRUE(shutdown.closed);
  server.join();
  built->shutdown();
}

TEST(ServerBodies, BackpressureCountsAcceptedDocsInStatsAndSink) {
  synth::CorpusSpec spec;
  spec.topics = 2;
  spec.concepts_per_topic = 4;
  spec.docs_per_topic = 12;
  spec.seed = 99;
  auto corpus = synth::generate_corpus(spec);

  core::ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = 6;
  sopts.concurrent.queue_capacity = 2;  // tiny: one bulk POST must overflow
  auto built = core::ShardedIndex::try_build(corpus.docs, sopts);
  ASSERT_TRUE(built.ok()) << built.status().to_string();
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  serve::HttpServer server(*built);
  ASSERT_TRUE(server.start().ok());

  std::string tsv;
  for (int i = 0; i < 300; ++i) {
    tsv += "bulk" + std::to_string(i) + "\t" + corpus.docs[i % 8].body + "\n";
  }
  TestClient client(server.port());
  const ClientResponse resp = client.request("POST", "/ingest", tsv);
  ASSERT_EQ(resp.status, 429) << resp.body;
  EXPECT_TRUE(obs::validate_json(resp.body).ok()) << resp.body;
  const std::string accepted = json_scalar_field(resp.body, "accepted");
  EXPECT_EQ(accepted, std::to_string(server.stats().docs_ingested));
  EXPECT_EQ(sink_counter(sink, "serve.docs_ingested"),
            server.stats().docs_ingested);

  server.drain();
  built->shutdown();
}

TEST(ServerBodies, ConnectionTableOverflowIsCountedAsOverload503) {
  synth::CorpusSpec spec;
  spec.topics = 2;
  spec.concepts_per_topic = 4;
  spec.docs_per_topic = 10;
  spec.seed = 7;
  auto corpus = synth::generate_corpus(spec);
  core::ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = 6;
  auto built = core::ShardedIndex::try_build(corpus.docs, sopts);
  ASSERT_TRUE(built.ok());

  serve::ServerOptions opts;
  opts.max_connections = 1;
  serve::HttpServer server(*built, opts);
  ASSERT_TRUE(server.start().ok());

  TestClient first(server.port());
  ASSERT_EQ(first.request("GET", "/healthz").status, 200);
  TestClient second(server.port());
  const ClientResponse refused = second.read_response();
  EXPECT_EQ(refused.status, 503);
  EXPECT_EQ(json_string_field(refused.body, "error"), "connection table full");

  const ClientResponse stats = first.request("GET", "/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_EQ(json_scalar_field(stats.body, "overload_503"), "1") << stats.body;
  EXPECT_EQ(server.stats().overload_503, 1u);

  server.drain();
  built->shutdown();
}

TEST_F(ServerTest, MalformedCursorAnswers400) {
  TestClient client(server_->port());
  const std::string token =
      json_string_field(client.request("POST", "/session").body, "session");
  ASSERT_FALSE(token.empty());
  const std::string q = encode_query(query_text());
  const ClientResponse page1 = client.request(
      "GET", "/search?q=" + q + "&session=" + token + "&top=2");
  ASSERT_EQ(page1.status, 200) << page1.body;

  for (const char* cursor : {"abc", "-1", ""}) {
    const ClientResponse resp = client.request(
        "GET", "/search?session=" + token + "&top=2&cursor=" + cursor);
    EXPECT_EQ(resp.status, 400) << cursor;
    EXPECT_EQ(json_string_field(resp.body, "error"),
              "cursor must be a nonnegative integer")
        << cursor << " -> " << resp.body;
  }
  // The refused requests left the session where page 1 put it.
  const ClientResponse page2 =
      client.request("GET", "/search?session=" + token + "&top=2");
  ASSERT_EQ(page2.status, 200);
  EXPECT_EQ(json_scalar_field(page2.body, "cursor"), "4");
}

TEST_F(ServerTest, InvalidUtf8LabelComesBackAsReplacementCharacter) {
  TestClient client(server_->port());
  const std::string body = corpus_.docs[0].body;
  const ClientResponse ingested = client.request(
      "POST", "/ingest?wait=1", "bad\xff\xfelabel\t" + body + "\n");
  ASSERT_EQ(ingested.status, 202) << ingested.body;

  const ClientResponse found = client.request(
      "GET", "/search?q=" + encode_query(body.substr(0, 40)) + "&top=" +
                 std::to_string(corpus_.docs.size() + 1));
  ASSERT_EQ(found.status, 200);
  EXPECT_EQ(found.body.find('\xff'), std::string::npos);
  EXPECT_NE(found.body.find("\"label\":\"bad\\ufffd\\ufffdlabel\""),
            std::string::npos)
      << found.body;
  EXPECT_TRUE(obs::validate_search_json(found.body, false).ok());
}

}  // namespace

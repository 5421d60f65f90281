// Serve-layer failover integration tests (label "integration-serve-
// replication"): the daemon in front of a 2-shard x 3-replica index, driven
// over real loopback sockets. Covers /healthz's ok -> degraded ->
// unavailable ladder, fold-in acks while a replica of every shard is
// ejected (and read-your-writes after replay), the per-replica /stats rows,
// quorum loss mapping to 503, and the /replica admin endpoints.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "lsi/lsi.hpp"
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

/// Collects every value of a numeric `"key":value` field, in body order.
std::vector<std::string> json_all_scalars(const std::string& body,
                                          const std::string& key) {
  std::vector<std::string> out;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    const std::size_t begin = pos + needle.size();
    out.push_back(
        body.substr(begin, body.find_first_of(",}]", begin) - begin));
    pos = begin;
  }
  return out;
}

std::size_t count_occurrences(const std::string& body,
                              const std::string& needle) {
  std::size_t n = 0, pos = 0;
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

class ServerReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::CorpusSpec spec;
    spec.topics = 3;
    spec.concepts_per_topic = 5;
    spec.docs_per_topic = 20;  // 60 docs
    spec.queries_per_topic = 2;
    spec.seed = 9191;
    corpus_ = synth::generate_corpus(spec);

    core::ShardingOptions sopts;
    sopts.num_shards = 2;
    sopts.replicas = 3;  // majority quorum: 2
    sopts.index.k = 8;
    sopts.concurrent.queue_capacity = 64;
    auto built = core::ShardedIndex::try_build(corpus_.docs, sopts);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    index_ = std::make_unique<core::ShardedIndex>(std::move(*built));

    server_ = std::make_unique<serve::HttpServer>(*index_);
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

TEST_F(ServerReplicationTest, HealthzWalksOkDegradedUnavailable) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  ClientResponse resp = client.request("GET", "/healthz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"replicas_per_shard\":3"), std::string::npos);
  EXPECT_NE(resp.body.find("\"healthy_replicas\":[3,3]"), std::string::npos);

  // One replica down: degraded, but still 200 — the node keeps serving.
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=0&replica=1").status,
            200);
  resp = client.request("GET", "/healthz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"healthy_replicas\":[2,3]"), std::string::npos);

  // Shard 0 loses everything: unavailable, 503, Retry-After set.
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=0&replica=0").status,
            200);
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=0&replica=2").status,
            200);
  resp = client.request("GET", "/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("\"status\":\"unavailable\""), std::string::npos);
  EXPECT_FALSE(resp.header("Retry-After").empty());

  // Reads still answer from stale snapshots even with shard 0 dead.
  const ClientResponse search = client.request(
      "GET", "/search?q=" + encode_query(query_text()) + "&top=5");
  EXPECT_EQ(search.status, 200) << search.body;

  // Recovery walks back up the ladder.
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(client
                  .request("POST", "/replica/readmit?shard=0&replica=" +
                                       std::to_string(r))
                  .status,
              200);
  }
  resp = client.request("GET", "/healthz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(ServerReplicationTest, IngestAcksDuringEjectionAndReplayCatchesUp) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // One replica of EVERY shard is down (wherever the router sends a
  // document, its shard is degraded) — quorum 2 of 3 still holds.
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=0&replica=2").status,
            200);
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=1&replica=2").status,
            200);

  // Re-ingest an existing document body under fresh labels: vocabularies
  // are frozen at build (fold-in semantics), so only in-vocabulary text is
  // findable — a verbatim copy must rank at the very top of its own query.
  const std::string body0 = corpus_.docs[0].body;
  const ClientResponse ingest = client.request(
      "POST", "/ingest?wait=1",
      "fresh-a\t" + body0 + "\nfresh-b\t" + corpus_.docs[1].body + "\n");
  EXPECT_EQ(ingest.status, 202) << ingest.body;
  EXPECT_NE(ingest.body.find("\"accepted\":2"), std::string::npos);

  // Read-your-writes against the degraded set: the search view pins healthy
  // replicas, which hold the new documents.
  const ClientResponse found = client.request(
      "GET", "/search?q=" + encode_query(body0) + "&top=5");
  EXPECT_EQ(found.status, 200);
  EXPECT_NE(found.body.find("\"label\":\"fresh-"), std::string::npos)
      << found.body;

  // Readmit: the 200 means the replay already caught each replica up.
  EXPECT_EQ(
      client.request("POST", "/replica/readmit?shard=0&replica=2").status,
      200);
  EXPECT_EQ(
      client.request("POST", "/replica/readmit?shard=1&replica=2").status,
      200);
  // Quiesce (flush via wait=1), then every replica of a shard must have
  // been fed the same log prefix.
  EXPECT_EQ(client
                .request("POST", "/ingest?wait=1",
                         "fresh-c\tsignal phrase delta\n")
                .status,
            202);
  const ClientResponse stats = client.request("GET", "/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_EQ(count_occurrences(stats.body, "\"state\":\"healthy\""), 6u);
  const auto fed = json_all_scalars(stats.body, "fed");
  ASSERT_EQ(fed.size(), 6u);  // 2 shards x 3 replica rows
  EXPECT_EQ(fed[0], fed[1]);
  EXPECT_EQ(fed[1], fed[2]);
  EXPECT_EQ(fed[3], fed[4]);
  EXPECT_EQ(fed[4], fed[5]);
}

TEST_F(ServerReplicationTest, QuorumLossMapsIngestTo503) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // Both shards down to one healthy replica: below the majority quorum.
  for (const char* target :
       {"/replica/eject?shard=0&replica=1", "/replica/eject?shard=0&replica=2",
        "/replica/eject?shard=1&replica=1",
        "/replica/eject?shard=1&replica=2"}) {
    EXPECT_EQ(client.request("POST", target).status, 200);
  }

  const ClientResponse refused =
      client.request("POST", "/ingest", "doomed\tno quorum for this one\n");
  EXPECT_EQ(refused.status, 503) << refused.body;
  EXPECT_NE(refused.body.find("quorum"), std::string::npos);
  EXPECT_NE(refused.body.find("\"accepted\":0"), std::string::npos);
  EXPECT_FALSE(refused.header("Retry-After").empty());

  // Reads are unaffected; the refusal is visible on the quorum counter.
  EXPECT_EQ(client
                .request("GET",
                         "/search?q=" + encode_query(query_text()) + "&top=3")
                .status,
            200);
  const ClientResponse stats = client.request("GET", "/stats");
  const auto quorum = json_all_scalars(stats.body, "quorum_503");
  ASSERT_EQ(quorum.size(), 1u);
  EXPECT_EQ(quorum[0], "1");

  // Readmitting one replica per shard restores quorum and the ack.
  EXPECT_EQ(
      client.request("POST", "/replica/readmit?shard=0&replica=1").status,
      200);
  EXPECT_EQ(
      client.request("POST", "/replica/readmit?shard=1&replica=1").status,
      200);
  EXPECT_EQ(client
                .request("POST", "/ingest?wait=1",
                         "revived\tquorum is back now\n")
                .status,
            202);
}

TEST_F(ServerReplicationTest, StatsReportsPerReplicaRowsConsistentWithPins) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  ClientResponse stats = client.request("GET", "/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"pinned_replica\":"), std::string::npos);
  EXPECT_EQ(count_occurrences(stats.body, "\"replicas\":["), 2u);
  EXPECT_EQ(count_occurrences(stats.body, "\"state\":\"healthy\""), 6u);
  // Per shard the body carries 5 "generation" fields in order: the pinned
  // view's, the nested ann object's, then one per replica row. Quiesced at
  // the base generation, view and replica rows all read 1 (the ann entry is
  // 0 — no structure was built for this small corpus).
  auto gens = json_all_scalars(stats.body, "generation");
  ASSERT_EQ(gens.size(), 10u);
  for (std::size_t i = 0; i < gens.size(); ++i) {
    if (i % 5 == 1) continue;  // the ann sub-object's generation
    EXPECT_EQ(gens[i], "1") << "field " << i;
  }

  // Ejection shows up as a state flip on exactly one row.
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=1&replica=0").status,
            200);
  stats = client.request("GET", "/stats");
  EXPECT_EQ(count_occurrences(stats.body, "\"state\":\"ejected\""), 1u);
  EXPECT_EQ(count_occurrences(stats.body, "\"state\":\"healthy\""), 5u);

  // Quiesce after more ingest: generations still agree within every shard.
  EXPECT_EQ(client.request("POST", "/replica/readmit?shard=1&replica=0")
                .status,
            200);
  EXPECT_EQ(client
                .request("POST", "/ingest?wait=1",
                         "gen-a\tmore words here\ngen-b\tand here too\n")
                .status,
            202);
  stats = client.request("GET", "/stats");
  gens = json_all_scalars(stats.body, "generation");
  ASSERT_EQ(gens.size(), 10u);
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const std::size_t view = shard * 5;  // then ann, then 3 replica rows
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(gens[view], gens[view + 2 + r]) << "shard " << shard;
    }
  }
}

TEST_F(ServerReplicationTest, AdminEndpointsValidateAndConflict) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // Parameters are mandatory and range-checked.
  EXPECT_EQ(client.request("POST", "/replica/eject").status, 400);
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=0").status, 400);
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=9&replica=0").status,
            400);
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=0&replica=9").status,
            400);
  // GET is not allowed on an admin verb.
  EXPECT_EQ(client.request("GET", "/replica/eject?shard=0&replica=0").status,
            405);

  const ClientResponse ejected =
      client.request("POST", "/replica/eject?shard=0&replica=1");
  EXPECT_EQ(ejected.status, 200);
  EXPECT_NE(ejected.body.find("\"state\":\"ejected\""), std::string::npos);
  EXPECT_NE(ejected.body.find("\"healthy\":2"), std::string::npos);

  // State conflicts are 409: eject twice, readmit a healthy sibling.
  EXPECT_EQ(client.request("POST", "/replica/eject?shard=0&replica=1").status,
            409);
  EXPECT_EQ(
      client.request("POST", "/replica/readmit?shard=0&replica=0").status,
      409);

  const ClientResponse readmitted =
      client.request("POST", "/replica/readmit?shard=0&replica=1");
  EXPECT_EQ(readmitted.status, 200);
  EXPECT_NE(readmitted.body.find("\"state\":\"healthy\""), std::string::npos);
  EXPECT_NE(readmitted.body.find("\"healthy\":3"), std::string::npos);
}

}  // namespace

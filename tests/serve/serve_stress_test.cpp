// Serving-layer concurrency stress (run under TSan in CI): many client
// threads hammer the daemon with mixed traffic — searches, session paging,
// ingest bursts, consolidations — so the epoll loop thread, the per-shard
// ConcurrentIndexer writer threads, the scatter pool, and a direct
// out-of-band consolidator all interleave. The invariants are freedom from
// races (TSan), conservation of the response ledger, and a clean drain that
// releases every snapshot pin.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "lsi/lsi.hpp"
#include "serve/server.hpp"
#include "synth/corpus.hpp"
#include "../serve/test_client.hpp"

namespace {

using namespace lsi;
using lsi::serve::testing::ClientResponse;
using lsi::serve::testing::TestClient;

constexpr std::size_t kClients = 4;
constexpr std::size_t kRequestsPerClient = 60;

std::string encode_query(const std::string& text) {
  std::string out;
  for (char c : text) out += (c == ' ') ? '+' : c;
  return out;
}

std::string json_string_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return {};
  const std::size_t begin = pos + needle.size();
  return body.substr(begin, body.find('"', begin) - begin);
}

TEST(ServeStress, MixedTrafficRacesWriterThreadsAndConsolidation) {
  synth::CorpusSpec spec;
  spec.topics = 3;
  spec.concepts_per_topic = 5;
  spec.docs_per_topic = 20;
  spec.queries_per_topic = 3;
  spec.seed = 555;
  auto corpus = synth::generate_corpus(spec);

  core::ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = 8;
  sopts.concurrent.queue_capacity = 8;  // small: 429s WILL happen
  sopts.concurrent.consolidate_every = 32;
  auto built = core::ShardedIndex::try_build(corpus.docs, sopts);
  ASSERT_TRUE(built.ok()) << built.status().to_string();
  core::ShardedIndex& index = *built;

  serve::ServerOptions opts;
  opts.default_page_size = 4;
  serve::HttpServer server(index, opts);
  ASSERT_TRUE(server.start().ok());

  std::atomic<std::size_t> ok_responses{0};
  std::atomic<std::size_t> throttled{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(server.port());
      if (!client.connected()) {
        failed.store(true);
        return;
      }
      // Each client owns one session and pages within it between ingests.
      const ClientResponse created = client.request("POST", "/session");
      if (created.status != 201) {
        failed.store(true);
        return;
      }
      const std::string token = json_string_field(created.body, "session");
      const std::string q =
          encode_query(corpus.queries[c % corpus.queries.size()].text);

      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        ClientResponse resp;
        switch (i % 6) {
          case 0:
            resp = client.request(
                "GET", "/search?session=" + token + "&q=" + q + "&cursor=0");
            break;
          case 1:
          case 2:
            resp = client.request("GET", "/search?session=" + token);
            break;
          case 3: {
            std::string tsv;
            for (int d = 0; d < 3; ++d) {
              tsv.append("c")
                  .append(std::to_string(c))
                  .append("i")
                  .append(std::to_string(i))
                  .append("d")
                  .append(std::to_string(d))
                  .append("\t")
                  .append(corpus.docs[(c + i + d) % corpus.docs.size()].body)
                  .append("\n");
            }
            resp = client.request("POST", "/ingest", tsv);
            break;
          }
          case 4:
            resp = client.request("GET", "/search?q=" + q + "&top=6");
            break;
          case 5:
            resp = client.request("GET", "/stats");
            break;
        }
        if (resp.status == 429) {
          throttled.fetch_add(1);
        } else if (resp.status >= 200 && resp.status < 300) {
          ok_responses.fetch_add(1);
        } else {
          failed.store(true);  // any other status under this load is a bug
          return;
        }
      }
    });
  }

  // Out-of-band consolidator: retires shard snapshots under live sessions.
  std::thread consolidator([&] {
    for (int i = 0; i < 5; ++i) {
      const Status s = index.consolidate();
      if (!s.ok()) failed.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  for (auto& t : clients) t.join();
  consolidator.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(ok_responses.load(), 0u);

  // The ledger balances: every request got exactly one classified response.
  const serve::HttpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests,
            stats.responses_2xx + stats.responses_4xx + stats.responses_5xx);
  EXPECT_EQ(stats.responses_4xx, throttled.load());
  EXPECT_EQ(stats.backpressure_429, throttled.load());

  server.drain();
  EXPECT_TRUE(server.stopped());
  EXPECT_EQ(index.pinned(), 0u);  // every session pin released by the drain
  index.shutdown();
}

TEST(ServeStress, DrainRacesInFlightTraffic) {
  synth::CorpusSpec spec;
  spec.topics = 2;
  spec.concepts_per_topic = 4;
  spec.docs_per_topic = 12;
  spec.seed = 556;
  auto corpus = synth::generate_corpus(spec);
  core::ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = 6;
  auto built = core::ShardedIndex::try_build(corpus.docs, sopts);
  ASSERT_TRUE(built.ok());
  core::ShardedIndex& index = *built;

  serve::HttpServer server(index);
  ASSERT_TRUE(server.start().ok());
  const std::string q = encode_query(corpus.queries.front().text);

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        // Drain may land mid-exchange: closed connections and 503s are the
        // expected outcomes; anything else (crash, hang, garbage) is not.
        TestClient client(server.port());
        if (!client.connected()) return;
        const ClientResponse resp =
            client.request("GET", "/search?q=" + q + "&top=3");
        if (resp.closed && resp.status == 0) return;  // drained under us
        if (resp.status != 200 && resp.status != 503) return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.drain();  // concurrent with live clients
  stop.store(true);
  for (auto& t : clients) t.join();

  EXPECT_TRUE(server.stopped());
  EXPECT_EQ(server.stats().connections_open, 0u);
  EXPECT_EQ(index.pinned(), 0u);
  index.shutdown();
}

}  // namespace

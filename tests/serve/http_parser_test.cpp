// HTTP/1.1 parser torture tests (docs/SERVING.md): table-driven malformed
// inputs, limit violations mapped to their status codes, pipelining, and the
// byte-split property — a request fed in fragments split at EVERY byte
// boundary must parse identically to the request delivered whole.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/http.hpp"

namespace {

using namespace lsi::serve;

HttpParser::Limits tiny_limits() {
  HttpParser::Limits limits;
  limits.max_request_line = 64;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 32;
  return limits;
}

// ---------------------------------------------------------------------------
// Happy path
// ---------------------------------------------------------------------------

TEST(HttpParser, ParsesSimpleGet) {
  HttpParser parser;
  parser.feed("GET /search?q=latent%20semantic&top=5 HTTP/1.1\r\n"
              "Host: localhost\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  const HttpRequest req = parser.take();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/search");
  EXPECT_EQ(req.param("q"), "latent semantic");
  EXPECT_EQ(req.param("top"), "5");
  EXPECT_EQ(req.param("absent", "fallback"), "fallback");
  EXPECT_TRUE(req.has_param("q"));
  EXPECT_FALSE(req.has_param("absent"));
  EXPECT_EQ(req.header("host"), "localhost");
  EXPECT_EQ(req.header("HOST"), "localhost");  // case-insensitive
  EXPECT_EQ(req.version_minor, 1);
  EXPECT_TRUE(req.keep_alive);
  EXPECT_TRUE(req.body.empty());
}

TEST(HttpParser, ParsesPostWithBody) {
  HttpParser parser;
  parser.feed("POST /ingest HTTP/1.1\r\nContent-Length: 8\r\n\r\nM1\thello");
  ASSERT_TRUE(parser.complete());
  const HttpRequest req = parser.take();
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, "M1\thello");
}

TEST(HttpParser, BareLfLineEndingsAccepted) {
  HttpParser parser;
  parser.feed("GET /healthz HTTP/1.1\nHost: x\n\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().path, "/healthz");
}

TEST(HttpParser, SkipsLeadingBlankLines) {
  HttpParser parser;
  parser.feed("\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().path, "/healthz");
}

TEST(HttpParser, HeaderValueWhitespaceTrimmed) {
  HttpParser parser;
  parser.feed("GET / HTTP/1.1\r\nX-Pad:   spaced value  \t\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().header("x-pad"), "spaced value");
}

// ---------------------------------------------------------------------------
// Keep-alive semantics
// ---------------------------------------------------------------------------

TEST(HttpParser, KeepAliveDefaultsByVersionAndConnectionOverrides) {
  struct Case {
    const char* request;
    bool keep_alive;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n", false},
  };
  for (const Case& c : cases) {
    HttpParser parser;
    parser.feed(c.request);
    ASSERT_TRUE(parser.complete()) << c.request;
    EXPECT_EQ(parser.take().keep_alive, c.keep_alive) << c.request;
  }
}

// ---------------------------------------------------------------------------
// Malformed inputs (table-driven)
// ---------------------------------------------------------------------------

TEST(HttpParser, MalformedInputsMapToStatusCodes) {
  struct Case {
    const char* name;
    std::string input;
    int status;
  };
  const std::string big(200, 'a');
  const Case cases[] = {
      {"missing version", "GET /\r\n\r\n", 400},
      {"one token", "GET\r\n\r\n", 400},
      {"empty target", "GET  HTTP/1.1\r\n\r\n", 400},
      {"method not a token", "G@T / HTTP/1.1\r\n\r\n", 400},
      {"garbage version", "GET / FTP/1.1\r\n\r\n", 400},
      {"http2 version", "GET / HTTP/2.0\r\n\r\n", 505},
      {"http09 version", "GET / HTTP/0.9\r\n\r\n", 505},
      {"unknown method PUT", "PUT / HTTP/1.1\r\n\r\n", 405},
      {"unknown method BREW", "BREW /pot HTTP/1.1\r\n\r\n", 405},
      {"header missing colon", "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
      {"header empty name", "GET / HTTP/1.1\r\n: value\r\n\r\n", 400},
      {"header name with space", "GET / HTTP/1.1\r\nBad Name: v\r\n\r\n", 400},
      {"content length not a number",
       "POST / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n", 400},
      {"content length negative",
       "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"transfer encoding refused",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"request line too long", "GET /" + big + " HTTP/1.1\r\n\r\n", 414},
      {"oversized body declared",
       "POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\n", 413},
  };
  for (const Case& c : cases) {
    HttpParser parser(tiny_limits());
    parser.feed(c.input);
    EXPECT_FALSE(parser.complete()) << c.name;
    ASSERT_TRUE(parser.failed()) << c.name;
    EXPECT_EQ(parser.error_status(), c.status)
        << c.name << ": " << parser.error_reason();
  }
}

TEST(HttpParser, OversizedHeaderBlockIs431) {
  HttpParser parser(tiny_limits());
  parser.feed("GET / HTTP/1.1\r\n");
  for (int i = 0; i < 16; ++i) {
    parser.feed("X-Padding-" + std::to_string(i) + ": aaaaaaaaaaaa\r\n");
    if (parser.failed()) break;
  }
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, OversizedRequestLineWithoutNewlineIs414) {
  // The limit must trip even when no line terminator ever arrives —
  // otherwise a client dribbling an endless request line pins the buffer.
  HttpParser parser(tiny_limits());
  parser.feed("GET /" + std::string(200, 'a'));
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(HttpParser, OversizedHeaderBlockWithoutNewlineIs431) {
  HttpParser parser(tiny_limits());
  parser.feed("GET / HTTP/1.1\r\nX-Pad: ");
  parser.feed(std::string(300, 'b'));
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, FeedAfterFailureIsInert) {
  HttpParser parser(tiny_limits());
  parser.feed("BREW / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  parser.feed("GET / HTTP/1.1\r\n\r\n");  // doomed connection: ignored
  EXPECT_TRUE(parser.failed());
  EXPECT_FALSE(parser.complete());
  EXPECT_EQ(parser.error_status(), 405);
}

// ---------------------------------------------------------------------------
// Incremental delivery: the byte-split property
// ---------------------------------------------------------------------------

TEST(HttpParser, SplitAtEveryByteBoundaryParsesIdentically) {
  const std::string wire =
      "POST /ingest?session=s1&wait=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "M1\thello lsi";
  // Reference parse: the whole request in one feed.
  HttpParser whole;
  whole.feed(wire);
  ASSERT_TRUE(whole.complete());
  const HttpRequest want = whole.take();

  for (std::size_t split = 0; split <= wire.size(); ++split) {
    HttpParser parser;
    parser.feed(std::string_view(wire).substr(0, split));
    EXPECT_FALSE(parser.failed()) << "split at " << split;
    parser.feed(std::string_view(wire).substr(split));
    ASSERT_TRUE(parser.complete()) << "split at " << split;
    const HttpRequest got = parser.take();
    EXPECT_EQ(got.method, want.method) << split;
    EXPECT_EQ(got.target, want.target) << split;
    EXPECT_EQ(got.path, want.path) << split;
    EXPECT_EQ(got.query, want.query) << split;
    EXPECT_EQ(got.headers, want.headers) << split;
    EXPECT_EQ(got.body, want.body) << split;
    EXPECT_EQ(got.keep_alive, want.keep_alive) << split;
  }
}

TEST(HttpParser, ByteAtATimeDelivery) {
  const std::string wire =
      "GET /search?q=svd HTTP/1.1\r\nHost: h\r\n\r\n";
  HttpParser parser;
  for (char c : wire) {
    ASSERT_FALSE(parser.failed());
    parser.feed(std::string_view(&c, 1));
  }
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().param("q"), "svd");
}

// ---------------------------------------------------------------------------
// Pipelining
// ---------------------------------------------------------------------------

TEST(HttpParser, PipelinedRequestsComeOutOneTakeAtATime) {
  HttpParser parser;
  parser.feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz"
      "GET /c HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().path, "/a");
  ASSERT_TRUE(parser.complete());  // take() re-armed onto the leftovers
  const HttpRequest second = parser.take();
  EXPECT_EQ(second.path, "/b");
  EXPECT_EQ(second.body, "xyz");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().path, "/c");
  EXPECT_FALSE(parser.complete());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpParser, PipelinedSuccessorCompletesAfterMoreBytes) {
  HttpParser parser;
  parser.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTT");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().path, "/a");
  EXPECT_FALSE(parser.complete());  // /b is still partial
  parser.feed("P/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().path, "/b");
}

// ---------------------------------------------------------------------------
// Helpers: decoding, escaping, serialization
// ---------------------------------------------------------------------------

TEST(HttpWire, UrlDecode) {
  EXPECT_EQ(url_decode("a%20b+c"), "a b c");
  EXPECT_EQ(url_decode("%2Fpath%3f"), "/path?");
  EXPECT_EQ(url_decode("100%"), "100%");    // trailing % passes through
  EXPECT_EQ(url_decode("%zz"), "%zz");      // malformed escape verbatim
  EXPECT_EQ(url_decode(""), "");
}

TEST(HttpWire, ParseQueryString) {
  const auto params = parse_query_string("q=a+b&flag&x=1%262&=v");
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0], (std::pair<std::string, std::string>{"q", "a b"}));
  EXPECT_EQ(params[1], (std::pair<std::string, std::string>{"flag", ""}));
  EXPECT_EQ(params[2], (std::pair<std::string, std::string>{"x", "1&2"}));
  EXPECT_EQ(params[3], (std::pair<std::string, std::string>{"", "v"}));
}

TEST(HttpWire, SerializeIdentity) {
  HttpResponse resp;
  resp.status = 200;
  resp.body = "{\"ok\":true}";
  const std::string wire = serialize(resp);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - resp.body.size()), resp.body);
}

TEST(HttpWire, SerializeChunkedRoundTrips) {
  HttpResponse resp;
  resp.chunked = true;
  resp.keep_alive = false;
  resp.body.assign(10000, 'x');  // spans multiple 4 KiB chunks
  const std::string wire = serialize(resp);
  EXPECT_NE(wire.find("Transfer-Encoding: chunked\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("Content-Length"), std::string::npos);

  // Decode the chunk stream back into a body.
  const std::size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  std::size_t pos = head_end + 4;
  std::string body;
  for (;;) {
    const std::size_t eol = wire.find("\r\n", pos);
    ASSERT_NE(eol, std::string::npos);
    const std::size_t n = std::stoul(wire.substr(pos, eol - pos), nullptr, 16);
    pos = eol + 2;
    if (n == 0) break;
    body += wire.substr(pos, n);
    ASSERT_EQ(wire.substr(pos + n, 2), "\r\n");
    pos += n + 2;
  }
  EXPECT_EQ(body, resp.body);
}

TEST(HttpWire, StatusReasonCoversDaemonCodes) {
  for (int status : {200, 201, 202, 400, 404, 405, 413, 414, 429, 431, 500,
                     501, 503, 505}) {
    EXPECT_NE(status_reason(status), "Unknown") << status;
  }
  EXPECT_EQ(status_reason(418), "Unknown");
}

}  // namespace

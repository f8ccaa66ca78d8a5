/**
 * @file
 * StatsServer tests: ephemeral-port binding, request routing, and
 * the bundled HTTP client, over a real loopback socket.
 */

#include <csignal>
#include <cstring>
#include <string>
#include <sys/time.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "sim/metrics.hh"
#include "sim/slog.hh"
#include "sim/stats_server.hh"

namespace vsnoop
{
namespace
{

TEST(StatsServer, ServesRoutesOnAnEphemeralPort)
{
    StatsServer server;
    server.route("/hello", [] {
        HttpResponse resp;
        resp.body = "hi\n";
        return resp;
    });
    server.route("/metrics", [] {
        HttpResponse resp;
        resp.contentType = kPrometheusContentType;
        resp.body = "# HELP x X.\n# TYPE x gauge\nx 1\n";
        return resp;
    });

    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;
    EXPECT_NE(server.port(), 0);
    EXPECT_EQ(server.address(),
              "127.0.0.1:" + std::to_string(server.port()));

    std::optional<std::string> body =
        httpGet(server.address(), "/hello", &error);
    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_EQ(*body, "hi\n");

    body = httpGet(server.address(), "/metrics", &error);
    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_EQ(*body, "# HELP x X.\n# TYPE x gauge\nx 1\n");
    EXPECT_GE(server.requestsServed(), 2u);

    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(StatsServer, UnknownPathIs404)
{
    StatsServer server;
    server.route("/only", [] { return HttpResponse{}; });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::optional<std::string> body =
        httpGet(server.address(), "/missing", &error);
    EXPECT_FALSE(body.has_value());
    EXPECT_NE(error.find("404"), std::string::npos) << error;
}

TEST(StatsServer, StartRejectsBadAddresses)
{
    StatsServer server;
    std::string error;
    EXPECT_FALSE(server.start("no-port-here", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(server.running());
}

TEST(StatsServer, ClientReportsConnectFailure)
{
    // A port we just bound and closed again is very likely free;
    // either way 127.0.0.1:1 is reserved and closed in practice.
    std::string error;
    std::optional<std::string> body =
        httpGet("127.0.0.1:1", "/x", &error, 500);
    EXPECT_FALSE(body.has_value());
    EXPECT_FALSE(error.empty());
}

TEST(StatsServer, RequestsSurviveSignalInterruption)
{
    // A run under a profiler or with an interval timer gets its
    // blocking socket calls interrupted with EINTR.  Install a
    // no-op SIGALRM handler WITHOUT SA_RESTART and fire it every
    // few milliseconds while a deliberately slow request is in
    // flight: recv/send on both sides must retry, not fail.
    StatsServer server;
    server.route("/slow", [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        HttpResponse resp;
        resp.body = "slow-ok\n";
        return resp;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    struct sigaction sa{};
    struct sigaction old{};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: syscalls return EINTR
    ASSERT_EQ(sigaction(SIGALRM, &sa, &old), 0);
    itimerval ticker{};
    ticker.it_interval.tv_usec = 5000;
    ticker.it_value.tv_usec = 5000;
    ASSERT_EQ(setitimer(ITIMER_REAL, &ticker, nullptr), 0);

    std::optional<std::string> body =
        httpGet(server.address(), "/slow", &error);

    itimerval off{};
    setitimer(ITIMER_REAL, &off, nullptr);
    sigaction(SIGALRM, &old, nullptr);

    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_EQ(*body, "slow-ok\n");
    server.stop();
}

/**
 * Send raw bytes to the server and return everything it replies
 * (headers included), for tests that need to speak broken HTTP the
 * well-formed client cannot produce.
 */
std::string
rawExchange(std::uint16_t port, const std::string &bytes,
            bool half_close = true)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(port);
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&sin),
                        sizeof sin),
              0);
    EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    if (half_close)
        ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

TEST(StatsServer, PrefixRoutesReceiveMethodPathAndBody)
{
    StatsServer server;
    server.routePrefix("POST", "/echo", [](const HttpRequest &req) {
        HttpResponse resp;
        resp.body = req.method + " " + req.path + " " + req.body;
        return resp;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::optional<HttpReply> reply =
        httpRequest(server.address(), "POST", "/echo/deep/path",
                    "payload", "text/plain", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 200);
    EXPECT_EQ(reply->body, "POST /echo/deep/path payload");

    // The prefix is registered for POST only: a GET of the same
    // path is a method mismatch, not an unknown route.
    reply = httpRequest(server.address(), "GET", "/echo/deep/path",
                        "", "", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 405);
}

TEST(StatsServer, OversizedBodiesAreRejectedWith413)
{
    StatsServer server;
    server.routePrefix("POST", "/sink", [](const HttpRequest &) {
        return HttpResponse{};
    });
    server.setMaxBodyBytes(100);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::optional<HttpReply> reply =
        httpRequest(server.address(), "POST", "/sink",
                    std::string(1000, 'x'), "text/plain", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 413);
    EXPECT_FALSE(reply->body.empty());

    // The small-body path still works afterwards.
    reply = httpRequest(server.address(), "POST", "/sink", "ok",
                        "text/plain", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 200);
}

TEST(StatsServer, MalformedRequestLinesAre400)
{
    StatsServer server;
    server.route("/fine", [] { return HttpResponse{}; });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::string reply =
        rawExchange(server.port(), "GARBAGE\r\n\r\n");
    EXPECT_NE(reply.find("400"), std::string::npos) << reply;

    reply = rawExchange(server.port(),
                        "GET /fine HTTP/1.1\r\n"
                        "Content-Length: banana\r\n\r\n");
    EXPECT_NE(reply.find("400"), std::string::npos) << reply;

    // Well-formed requests still succeed on the same server.
    std::optional<std::string> body =
        httpGet(server.address(), "/fine", &error);
    EXPECT_TRUE(body.has_value()) << error;
}

TEST(StatsServer, StreamingResponsesArriveChunkedAndDecode)
{
    StatsServer server;
    server.routePrefix("GET", "/stream", [](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "application/x-ndjson";
        resp.stream = [](const ChunkWriter &write) {
            write("line-1\n");
            write("line-2\n");
            write("line-3\n");
        };
        return resp;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    // The raw wire must carry chunked framing...
    std::string raw = rawExchange(server.port(),
                                  "GET /stream HTTP/1.1\r\n\r\n");
    EXPECT_NE(raw.find("Transfer-Encoding: chunked"),
              std::string::npos)
        << raw;

    // ...and the bundled client must reassemble the payload.
    std::optional<std::string> body =
        httpGet(server.address(), "/stream", &error);
    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_EQ(*body, "line-1\nline-2\nline-3\n");
}

TEST(StatsServer, StalledClientsAreDroppedNotWedged)
{
    StatsServer server;
    server.route("/ok", [] {
        HttpResponse resp;
        resp.body = "ok\n";
        return resp;
    });
    server.setReadTimeoutMs(100);
    server.setWorkers(1);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    // Half a request, then silence: the read timeout must free the
    // (single) worker instead of wedging it forever.
    std::string reply = rawExchange(
        server.port(), "GET /ok HTTP/1.1\r\nX-Half: ", false);
    EXPECT_NE(reply.find("408"), std::string::npos) << reply;

    std::optional<std::string> body =
        httpGet(server.address(), "/ok", &error);
    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_EQ(*body, "ok\n");
}

TEST(StatsServer, ResponsesEchoOrGenerateRequestIds)
{
    StatsServer server;
    server.route("/hello", [] {
        HttpResponse resp;
        resp.body = "hi\n";
        return resp;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    // A client-supplied id is echoed verbatim...
    std::optional<HttpReply> reply =
        httpRequest(server.address(), "GET", "/hello", "", "",
                    &error, 5000, "my-id-123");
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->requestId, "my-id-123");

    // ...and a request without one gets a server-generated id.
    reply = httpRequest(server.address(), "GET", "/hello", "", "",
                        &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_FALSE(reply->requestId.empty());
    EXPECT_EQ(reply->requestId[0], 'r');

    // The header is on the raw wire too, error responses included.
    std::string raw = rawExchange(server.port(),
                                  "GET /hello HTTP/1.1\r\n"
                                  "X-Request-Id: wire-id\r\n\r\n");
    EXPECT_NE(raw.find("X-Request-Id: wire-id"), std::string::npos)
        << raw;
    raw = rawExchange(server.port(), "GARBAGE\r\n\r\n");
    EXPECT_NE(raw.find("X-Request-Id: "), std::string::npos) << raw;
}

/** http_access records logged past @p sinceSeq with @p status. */
std::size_t
accessLogCount(std::uint64_t sinceSeq, int status)
{
    std::size_t matches = 0;
    std::string needle =
        "\"status\":" + std::to_string(status) + ",";
    for (const LogRecord &r : slog().tail()) {
        if (r.seq <= sinceSeq)
            continue;
        if (r.json.find("\"msg\":\"http_access\"") ==
            std::string::npos)
            continue;
        if (r.json.find(needle) != std::string::npos)
            ++matches;
    }
    return matches;
}

TEST(StatsServer, ClientErrorsAreCountedAndAccessLogged)
{
    StatsServer server;
    server.routePrefix("POST", "/sink", [](const HttpRequest &) {
        return HttpResponse{};
    });
    server.setMaxBodyBytes(64);
    server.setReadTimeoutMs(100);
    MetricsRegistry registry;
    server.registerMetrics(registry);
    registry.freeze();
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::uint64_t seq0 = slog().recorded();
    std::string raw = rawExchange(server.port(), "GARBAGE\r\n\r\n");
    EXPECT_NE(raw.find("400"), std::string::npos);
    raw = rawExchange(server.port(),
                      "POST /sink HTTP/1.1\r\nContent-Length: "
                      "1000\r\n\r\n" + std::string(1000, 'x'));
    EXPECT_NE(raw.find("413"), std::string::npos);
    raw = rawExchange(server.port(), "GET /sink HTTP/1.1\r\nX: ",
                      false);
    EXPECT_NE(raw.find("408"), std::string::npos);

    EXPECT_EQ(server.clientErrors(400), 1u);
    EXPECT_EQ(server.clientErrors(413), 1u);
    EXPECT_EQ(server.clientErrors(408), 1u);

    // Every rejected request still produced one access-log record.
    EXPECT_EQ(accessLogCount(seq0, 400), 1u);
    EXPECT_EQ(accessLogCount(seq0, 413), 1u);
    EXPECT_EQ(accessLogCount(seq0, 408), 1u);

    registry.publish();
    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find(
                  "vsnoop_http_responses_total{code=\"400\"} 1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(
                  "vsnoop_http_responses_total{code=\"408\"} 1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(
                  "vsnoop_http_responses_total{code=\"413\"} 1\n"),
              std::string::npos)
        << text;
}

TEST(StatsServer, PerRouteLatencyHistogramsCountRequests)
{
    StatsServer server;
    server.route("/hello", [] {
        HttpResponse resp;
        resp.body = "hi\n";
        return resp;
    });
    MetricsRegistry registry;
    server.registerMetrics(registry);
    registry.freeze();
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(
            httpGet(server.address(), "/hello", &error).has_value())
            << error;
    // A 404 never reaches a handler: it lands in the "other"
    // bucket, not a route's.
    httpGet(server.address(), "/missing", &error);

    registry.publish();
    std::string text = registry.renderPrometheus();
    EXPECT_NE(
        text.find("vsnoop_http_request_duration_us_count"
                  "{route=\"GET /hello\"} 3\n"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_http_request_duration_us_count"
                        "{route=\"other\"} 1\n"),
              std::string::npos)
        << text;
    // _count reconciles with the request counter.
    EXPECT_NE(text.find("vsnoop_http_requests_total 4\n"),
              std::string::npos)
        << text;
}

TEST(StatsServer, ServesALiveRegistrySnapshot)
{
    MetricsRegistry registry;
    double live = 0.0;
    registry.addGauge("live", "Live.", [&live] { return live; });
    registry.freeze();

    StatsServer server;
    server.route("/metrics", [&registry] {
        HttpResponse resp;
        resp.contentType = kPrometheusContentType;
        resp.body = registry.renderPrometheus();
        return resp;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    live = 42.0;
    registry.publish();
    std::optional<std::string> body =
        httpGet(server.address(), "/metrics", &error);
    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_NE(body->find("live 42\n"), std::string::npos) << *body;

    live = 43.0;
    registry.publish();
    body = httpGet(server.address(), "/metrics", &error);
    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_NE(body->find("live 43\n"), std::string::npos) << *body;
}

} // namespace
} // namespace vsnoop

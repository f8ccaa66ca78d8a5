/**
 * @file
 * Embedded stats server: a small blocking HTTP/1.1 endpoint on a
 * background accept thread plus a fixed pool of connection workers.
 *
 * vsnoopsim and vsnoopsweep expose their live telemetry
 * (sim/metrics.hh snapshots, sweep progress) over plain HTTP so
 * standard tooling — curl, Prometheus, the vsnooptop dashboard —
 * can watch a running simulation, and vsnoopserve builds its job
 * API (src/service) on the same loop.  The server is deliberately
 * minimal: HTTP/1.1 with Connection: close, no TLS, no keep-alive.
 * A telemetry scrape costs a serving thread a snapshot copy and a
 * few syscalls; the simulation threads never block on it, so run
 * output stays byte-identical with the server on or off.
 *
 * Connections are handled by a small worker pool (setWorkers()),
 * so one slow or stalled client occupies one worker — never the
 * accept loop — and every connection carries a read timeout
 * (setReadTimeoutMs()): a client that stalls mid-request is
 * dropped with 408 instead of wedging a worker forever.  Request
 * bodies are bounded by setMaxBodyBytes(); oversized bodies are
 * rejected with 413 and malformed requests with 400, both with a
 * correct Content-Length so well-behaved clients can resync.
 *
 * Two route flavors:
 *  - route(path, fn): exact-path GET handler returning a buffered
 *    body (the original telemetry surface).
 *  - routePrefix(method, prefix, fn): method + path-prefix handler
 *    receiving the parsed HttpRequest (method, path, query, body).
 *    A handler may return a streaming response (HttpResponse::
 *    stream), which the server transfers chunked — this is how
 *    GET /jobs/<id>/results streams JSONL while a job still runs.
 *
 * Routes are registered before start() and immutable afterwards,
 * so workers read them without locks.  start() binds "host:port"
 * (IPv4 dotted quad; port 0 picks an ephemeral port — read the
 * result back with port()/address()).  stop() shuts the listening
 * socket down and joins every thread; the destructor calls it.
 *
 * Observability: every request carries a request id — the client's
 * X-Request-Id header when present, otherwise server-generated —
 * which is echoed back as an X-Request-Id response header, handed
 * to prefix handlers via HttpRequest::requestId, and stamped on
 * the structured access log record (sim/slog.hh) the server emits
 * per response: {"msg":"http_access","method","path","status",
 * "bytes","dur_us","request_id"}.  The error paths (400/408/413)
 * log and echo ids too.  registerMetrics() exports per-route
 * request-latency histograms and client-error counters through a
 * MetricsRegistry.
 */

#ifndef VSNOOP_SIM_STATS_SERVER_HH_
#define VSNOOP_SIM_STATS_SERVER_HH_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace vsnoop
{

/** One parsed HTTP request as seen by a prefix-route handler. */
struct HttpRequest
{
    std::string method;
    /** Path with the query string stripped. */
    std::string path;
    /** Query string after '?' (possibly empty). */
    std::string query;
    std::string body;
    /**
     * The request's correlation id: the client's X-Request-Id
     * header when sent, a server-generated one otherwise.  Echoed
     * in the response headers and the access log; handlers thread
     * it into whatever work the request starts.
     */
    std::string requestId;
};

/**
 * Writes one piece of a chunked response; returns false once the
 * client is gone (the handler should stop producing).
 */
using ChunkWriter = std::function<bool(std::string_view)>;

/**
 * One HTTP response.  When @p stream is set the status and content
 * type are sent with Transfer-Encoding: chunked, @p body is
 * ignored, and the handler's stream function produces the payload
 * through a ChunkWriter on the serving thread.
 */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
    std::function<void(const ChunkWriter &)> stream;
};

/**
 * The blocking HTTP/1.1 stats endpoint.  See the file comment.
 */
class StatsServer
{
  public:
    using Handler = std::function<HttpResponse()>;
    using RequestHandler =
        std::function<HttpResponse(const HttpRequest &)>;

    StatsServer() = default;
    ~StatsServer();

    StatsServer(const StatsServer &) = delete;
    StatsServer &operator=(const StatsServer &) = delete;

    /**
     * Register a handler for an exact GET path ("/metrics").  Must
     * be called before start().  Handlers run on a worker thread;
     * they must only touch thread-safe state (registry snapshots,
     * heartbeat atomics).
     */
    void route(std::string path, Handler handler);

    /**
     * Register a handler for every @p method request whose path
     * starts with @p prefix ("POST" + "/jobs" matches /jobs and
     * /jobs/7/results).  Longest matching prefix wins; exact GET
     * routes are consulted first.  Must be called before start().
     */
    void routePrefix(std::string method, std::string prefix,
                     RequestHandler handler);

    /** @{ Serving knobs; must be set before start(). */
    /** Per-connection socket read/write timeout (default 5000). */
    void setReadTimeoutMs(int ms);
    /** Largest accepted request body (default 1 MiB; 413 beyond). */
    void setMaxBodyBytes(std::size_t bytes);
    /** Connection worker threads (default 4, minimum 1). */
    void setWorkers(unsigned workers);
    /** @} */

    /**
     * Bind @p addr ("host:port", e.g. "127.0.0.1:9090"; port 0 for
     * ephemeral) and start serving on background threads.  Returns
     * false and sets @p error on parse/bind failure.
     */
    bool start(const std::string &addr, std::string *error = nullptr);

    bool running() const { return listenFd_ >= 0; }

    /** Actual bound port (after start(); resolves port 0). */
    std::uint16_t port() const { return port_; }

    /** "host:port" with the actual bound port. */
    std::string address() const;

    /** Requests served so far (any status). */
    std::uint64_t requestsServed() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

    /** Responses sent with one of the client-error statuses. */
    std::uint64_t clientErrors(int status) const;

    /**
     * Register the server's telemetry with @p registry (call after
     * every route is registered, before registry.freeze()):
     * vsnoop_http_requests_total, vsnoop_http_responses_total
     * {code="400"|"408"|"413"}, and one
     * vsnoop_http_request_duration_us histogram per route (labeled
     * route="GET /metrics"-style; unmatched/early-error requests
     * land in route="other").  The server must outlive the
     * registry's last publish().
     */
    void registerMetrics(MetricsRegistry &registry);

    /** Stop accepting, join every thread, close the socket. */
    void stop();

  private:
    struct PrefixRoute
    {
        std::string method;
        std::string prefix;
        RequestHandler handler;
    };

    /** Latency sink for one route; sampled by serving workers. */
    struct RouteLatency
    {
        std::string key;
        mutable std::mutex mutex;
        LatencyHistogram hist;
    };

    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd);
    std::string nextRequestId();
    void recordAccess(const std::string &method,
                      const std::string &path,
                      const std::string &requestId, int status,
                      std::size_t bytes, std::uint64_t durUs,
                      std::size_t routeIndex);

    std::vector<std::pair<std::string, Handler>> routes_;
    std::vector<PrefixRoute> prefixRoutes_;
    std::string host_;
    std::uint16_t port_ = 0;
    int listenFd_ = -1;
    int readTimeoutMs_ = 5000;
    std::size_t maxBodyBytes_ = 1u << 20;
    unsigned numWorkers_ = 4;
    std::thread acceptThread_;
    std::vector<std::thread> workers_;
    /** Accepted fds awaiting a worker; guarded by queueMutex_. */
    std::deque<int> pending_;
    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> requests_{0};

    /** Request-id generation: process-start epoch ms + a counter. */
    std::uint64_t idEpochMs_ = 0;
    std::atomic<std::uint64_t> idCounter_{0};

    /** Client-error response counts (tracked even unregistered). */
    std::atomic<std::uint64_t> resp400_{0};
    std::atomic<std::uint64_t> resp408_{0};
    std::atomic<std::uint64_t> resp413_{0};

    /** Per-route latency: [exact routes][prefix routes]["other"].
     * Built by registerMetrics(); empty means metrics are off. */
    std::vector<std::unique_ptr<RouteLatency>> routeLatency_;
};

/** Status line and decoded body of one client-side HTTP exchange. */
struct HttpReply
{
    int status = 0;
    std::string body;
    /** The server-echoed X-Request-Id header (empty if absent). */
    std::string requestId;
};

/**
 * Minimal blocking HTTP/1.1 client (the other half of the stats
 * server; used by vsnooptop, vsnoopload, vsnoopsweep --submit and
 * the tests).  Sends @p method to http://addr/path with @p body
 * (Content-Length framed) and returns the status and the decoded
 * response body — chunked transfer encoding is reassembled.
 * Returns nullopt with @p error set only on transport or protocol
 * failure; HTTP error statuses are returned to the caller.  A
 * non-empty @p requestId is sent as X-Request-Id so the exchange
 * can be correlated with the server's access log and job spans;
 * the server's echoed id comes back in HttpReply::requestId either
 * way.
 */
std::optional<HttpReply> httpRequest(const std::string &addr,
                                     const std::string &method,
                                     const std::string &path,
                                     const std::string &body = "",
                                     const std::string &contentType =
                                         "application/json",
                                     std::string *error = nullptr,
                                     int timeoutMs = 5000,
                                     const std::string &requestId = "");

/**
 * Convenience GET: body on a 200, nullopt with @p error set on any
 * transport failure or non-200 status.
 */
std::optional<std::string> httpGet(const std::string &addr,
                                   const std::string &path,
                                   std::string *error = nullptr,
                                   int timeoutMs = 5000);

} // namespace vsnoop

#endif // VSNOOP_SIM_STATS_SERVER_HH_

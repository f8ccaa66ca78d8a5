#include "sim/stats_server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "sim/logging.hh"
#include "sim/slog.hh"

namespace vsnoop
{

namespace
{

/** Cap on the request-line + header section of a request. */
constexpr std::size_t kMaxHeaderBytes = 16 * 1024;

/**
 * Split "host:port" and parse both halves.  Only IPv4 dotted quads
 * (and the empty host, meaning INADDR_ANY) are accepted — the
 * embedded server is a debugging endpoint, not a general listener.
 */
bool
parseAddr(const std::string &addr, std::string *host,
          std::uint16_t *port, std::string *error)
{
    std::size_t colon = addr.rfind(':');
    if (colon == std::string::npos) {
        if (error)
            *error = "expected host:port, got '" + addr + "'";
        return false;
    }
    *host = addr.substr(0, colon);
    std::string port_str = addr.substr(colon + 1);
    char *end = nullptr;
    unsigned long parsed = std::strtoul(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0' || parsed > 65535) {
        if (error)
            *error = "invalid port '" + port_str + "'";
        return false;
    }
    *port = static_cast<std::uint16_t>(parsed);
    if (host->empty())
        *host = "0.0.0.0";
    in_addr probe{};
    if (inet_pton(AF_INET, host->c_str(), &probe) != 1) {
        if (error)
            *error = "invalid IPv4 address '" + *host +
                     "' (use a dotted quad, e.g. 127.0.0.1)";
        return false;
    }
    return true;
}

void
setSocketTimeout(int fd, int timeout_ms)
{
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool
writeAll(int fd, const char *data, std::size_t size)
{
    while (size > 0) {
        ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue; // interrupted by a signal, not an error
        if (n <= 0)
            return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeAll(int fd, std::string_view bytes)
{
    return writeAll(fd, bytes.data(), bytes.size());
}

/** recv() that retries EINTR (socket timeouts still return -1). */
ssize_t
recvRetry(int fd, char *buf, std::size_t size)
{
    for (;;) {
        ssize_t n = ::recv(fd, buf, size, 0);
        if (n < 0 && errno == EINTR)
            continue;
        return n;
    }
}

const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 413: return "Payload Too Large";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default: return "Error";
    }
}

std::string
serialize(const HttpResponse &resp, const std::string &requestId)
{
    std::string out = "HTTP/1.1 ";
    out += std::to_string(resp.status);
    out += ' ';
    out += statusText(resp.status);
    out += "\r\nContent-Type: ";
    out += resp.contentType;
    if (!requestId.empty()) {
        out += "\r\nX-Request-Id: ";
        out += requestId;
    }
    out += "\r\nContent-Length: ";
    out += std::to_string(resp.body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += resp.body;
    return out;
}

/**
 * Clamp a client-supplied request id to something safe to echo in
 * a header and embed in a JSON log line: printable ASCII, bounded
 * length.  headerValue() already stripped the line breaks.
 */
std::string
sanitizeRequestId(std::string id)
{
    if (id.size() > 128)
        id.resize(128);
    for (char &c : id)
        if (c < 0x21 || c > 0x7e)
            c = '_';
    return id;
}

HttpResponse
textResponse(int status, std::string body)
{
    HttpResponse resp;
    resp.status = status;
    resp.body = std::move(body);
    return resp;
}

bool
asciiEqualsIgnoreCase(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

/**
 * Value of header @p name within the header block (request line
 * included; it never matches a "name:" pattern).  Empty when
 * absent.  Leading/trailing blanks of the value are trimmed.
 */
std::string
headerValue(std::string_view headers, std::string_view name)
{
    std::size_t pos = 0;
    while (pos < headers.size()) {
        std::size_t eol = headers.find("\r\n", pos);
        if (eol == std::string_view::npos)
            eol = headers.size();
        std::string_view line = headers.substr(pos, eol - pos);
        std::size_t colon = line.find(':');
        if (colon != std::string_view::npos &&
            asciiEqualsIgnoreCase(line.substr(0, colon), name)) {
            std::string_view value = line.substr(colon + 1);
            while (!value.empty() &&
                   (value.front() == ' ' || value.front() == '\t'))
                value.remove_prefix(1);
            while (!value.empty() &&
                   (value.back() == ' ' || value.back() == '\r'))
                value.remove_suffix(1);
            return std::string(value);
        }
        pos = eol + 2;
    }
    return "";
}

} // namespace

StatsServer::~StatsServer()
{
    stop();
}

void
StatsServer::route(std::string path, Handler handler)
{
    vsnoop_assert(!running(),
                  "routes must be registered before start()");
    vsnoop_assert(routeLatency_.empty(),
                  "routes must be registered before registerMetrics()");
    vsnoop_assert(!path.empty() && path[0] == '/',
                  "route path must start with '/'");
    routes_.emplace_back(std::move(path), std::move(handler));
}

void
StatsServer::routePrefix(std::string method, std::string prefix,
                         RequestHandler handler)
{
    vsnoop_assert(!running(),
                  "routes must be registered before start()");
    vsnoop_assert(routeLatency_.empty(),
                  "routes must be registered before registerMetrics()");
    vsnoop_assert(!prefix.empty() && prefix[0] == '/',
                  "route prefix must start with '/'");
    vsnoop_assert(!method.empty(), "route method must be non-empty");
    prefixRoutes_.push_back(
        {std::move(method), std::move(prefix), std::move(handler)});
}

std::uint64_t
StatsServer::clientErrors(int status) const
{
    switch (status) {
      case 400: return resp400_.load(std::memory_order_relaxed);
      case 408: return resp408_.load(std::memory_order_relaxed);
      case 413: return resp413_.load(std::memory_order_relaxed);
      default: return 0;
    }
}

void
StatsServer::registerMetrics(MetricsRegistry &registry)
{
    vsnoop_assert(routeLatency_.empty(),
                  "server metrics registered twice");
    registry.addCounter(
        "vsnoop_http_requests_total",
        "HTTP requests whose headers were fully received.",
        [this] { return static_cast<double>(requestsServed()); });
    for (int code : {400, 408, 413}) {
        registry.addCounter(
            "vsnoop_http_responses_total",
            "Client-error responses sent, by status code.",
            [this, code] {
                return static_cast<double>(clientErrors(code));
            },
            {{"code", std::to_string(code)}});
    }

    auto addRoute = [this](std::string key) {
        auto rl = std::make_unique<RouteLatency>();
        rl->key = std::move(key);
        routeLatency_.push_back(std::move(rl));
    };
    for (const auto &[route, fn] : routes_)
        addRoute("GET " + route);
    for (const PrefixRoute &route : prefixRoutes_)
        addRoute(route.method + " " + route.prefix);
    // Requests that never reach a handler: 404s, 405s, malformed
    // or over-limit requests cut off before dispatch.
    addRoute("other");
    for (const auto &rl : routeLatency_) {
        registry.addHistogram(
            "vsnoop_http_request_duration_us",
            "Wall time from first byte read to response written, "
            "microseconds.",
            [&latency = *rl] {
                std::lock_guard<std::mutex> lock(latency.mutex);
                return latency.hist;
            },
            {{"route", rl->key}});
    }
}

std::string
StatsServer::nextRequestId()
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "r%llx-%llu",
                  static_cast<unsigned long long>(idEpochMs_),
                  static_cast<unsigned long long>(
                      idCounter_.fetch_add(
                          1, std::memory_order_relaxed) + 1));
    return buf;
}

void
StatsServer::recordAccess(const std::string &method,
                          const std::string &path,
                          const std::string &requestId, int status,
                          std::size_t bytes, std::uint64_t durUs,
                          std::size_t routeIndex)
{
    if (status == 400)
        resp400_.fetch_add(1, std::memory_order_relaxed);
    else if (status == 408)
        resp408_.fetch_add(1, std::memory_order_relaxed);
    else if (status == 413)
        resp413_.fetch_add(1, std::memory_order_relaxed);
    slog().log(LogLevel::Info, "http_access",
               {LogField("method", method), LogField("path", path),
                LogField("status", status),
                LogField("bytes", static_cast<std::uint64_t>(bytes)),
                LogField("dur_us", durUs),
                LogField("request_id", requestId)});
    if (routeIndex < routeLatency_.size()) {
        RouteLatency &rl = *routeLatency_[routeIndex];
        std::lock_guard<std::mutex> lock(rl.mutex);
        rl.hist.sample(durUs);
    }
}

void
StatsServer::setReadTimeoutMs(int ms)
{
    vsnoop_assert(!running(), "set the timeout before start()");
    vsnoop_assert(ms > 0, "read timeout must be positive");
    readTimeoutMs_ = ms;
}

void
StatsServer::setMaxBodyBytes(std::size_t bytes)
{
    vsnoop_assert(!running(), "set the body limit before start()");
    maxBodyBytes_ = bytes;
}

void
StatsServer::setWorkers(unsigned workers)
{
    vsnoop_assert(!running(), "set the worker count before start()");
    numWorkers_ = std::max(1u, workers);
}

bool
StatsServer::start(const std::string &addr, std::string *error)
{
    vsnoop_assert(!running(), "stats server started twice");
    if (!parseAddr(addr, &host_, &port_, error))
        return false;

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(port_);
    inet_pton(AF_INET, host_.c_str(), &sin.sin_addr);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&sin), sizeof sin) < 0 ||
        ::listen(fd, 64) < 0) {
        if (error)
            *error = "cannot listen on " + addr + ": " +
                     std::strerror(errno);
        ::close(fd);
        return false;
    }

    // Resolve port 0 to the kernel-assigned ephemeral port.
    socklen_t len = sizeof sin;
    if (getsockname(fd, reinterpret_cast<sockaddr *>(&sin), &len) == 0)
        port_ = ntohs(sin.sin_port);

    listenFd_ = fd;
    idEpochMs_ = wallClockMs();
    stopping_.store(false, std::memory_order_relaxed);
    acceptThread_ = std::thread(&StatsServer::acceptLoop, this);
    workers_.reserve(numWorkers_);
    for (unsigned w = 0; w < numWorkers_; ++w)
        workers_.emplace_back(&StatsServer::workerLoop, this);
    return true;
}

std::string
StatsServer::address() const
{
    return host_ + ":" + std::to_string(port_);
}

void
StatsServer::stop()
{
    if (!running())
        return;
    stopping_.store(true, std::memory_order_relaxed);
    // Unblock accept(); on Linux this makes it return with an
    // error, after which the loop observes stopping_ and exits.
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    queueCv_.notify_all();
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
    workers_.clear();
    // Connections accepted but never picked up by a worker.
    for (int fd : pending_)
        ::close(fd);
    pending_.clear();
    ::close(listenFd_);
    listenFd_ = -1;
}

void
StatsServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_relaxed))
                break;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            break; // listening socket is gone; nothing to serve
        }
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            pending_.push_back(fd);
        }
        queueCv_.notify_one();
    }
}

void
StatsServer::workerLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [&] {
                return !pending_.empty() ||
                       stopping_.load(std::memory_order_relaxed);
            });
            if (pending_.empty())
                return; // stopping, queue drained
            fd = pending_.front();
            pending_.pop_front();
        }
        handleConnection(fd);
        ::close(fd);
    }
}

void
StatsServer::handleConnection(int fd)
{
    auto t0 = std::chrono::steady_clock::now();
    setSocketTimeout(fd, readTimeoutMs_);

    std::string method = "-";
    std::string path = "-";
    std::string requestId;
    // Until dispatch picks a real route, latency accrues to the
    // trailing "other" bucket (when metrics are registered at all).
    std::size_t routeIndex =
        routeLatency_.empty() ? 0 : routeLatency_.size() - 1;

    auto elapsedUs = [&t0] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    };
    // Send one buffered response and account for it: access log
    // line, error counters, route latency sample.
    auto reply = [&](const HttpResponse &resp) {
        if (requestId.empty())
            requestId = nextRequestId();
        writeAll(fd, serialize(resp, requestId));
        recordAccess(method, path, requestId, resp.status,
                     resp.body.size(), elapsedUs(), routeIndex);
    };

    // Read until the end of the request headers (or the cap).  A
    // client that stalls here is cut off by the socket timeout —
    // it holds one worker for at most readTimeoutMs_, never the
    // accept loop.
    std::string data;
    char buf[4096];
    std::size_t header_end;
    while ((header_end = data.find("\r\n\r\n")) == std::string::npos) {
        if (data.size() >= kMaxHeaderBytes) {
            reply(textResponse(400, "request headers too large\n"));
            return;
        }
        ssize_t n = recvRetry(fd, buf, sizeof buf);
        if (n == 0 || (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))) {
            // EOF or stall before a full request: only answer the
            // stall — an immediate close has nobody listening.
            if (n < 0 && !data.empty())
                reply(textResponse(408, "request timed out\n"));
            return;
        }
        if (n < 0)
            return;
        data.append(buf, static_cast<std::size_t>(n));
    }

    requests_.fetch_add(1, std::memory_order_relaxed);

    // The client's correlation id, or a generated one — known from
    // here on, so every later error response echoes it.
    std::string_view headers =
        std::string_view(data).substr(0, header_end);
    requestId =
        sanitizeRequestId(headerValue(headers, "x-request-id"));
    if (requestId.empty())
        requestId = nextRequestId();

    // "METHOD /path HTTP/1.1"
    std::size_t line_end = data.find("\r\n");
    std::string line = data.substr(0, line_end);
    std::size_t sp1 = line.find(' ');
    std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        line.compare(sp2 + 1, 5, "HTTP/") != 0) {
        reply(textResponse(400, "malformed request line\n"));
        return;
    }

    HttpRequest request;
    request.method = line.substr(0, sp1);
    request.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::size_t query = request.path.find('?');
    if (query != std::string::npos) {
        request.query = request.path.substr(query + 1);
        request.path.resize(query);
    }
    request.requestId = requestId;
    method = request.method;
    path = request.path;

    if (!headerValue(headers, "transfer-encoding").empty()) {
        reply(textResponse(
                  400, "chunked request bodies are not supported;"
                       " send Content-Length\n"));
        return;
    }
    std::size_t content_length = 0;
    std::string length_str = headerValue(headers, "content-length");
    if (!length_str.empty()) {
        char *end = nullptr;
        unsigned long long parsed =
            std::strtoull(length_str.c_str(), &end, 10);
        if (end == length_str.c_str() || *end != '\0') {
            reply(textResponse(400, "invalid Content-Length\n"));
            return;
        }
        content_length = static_cast<std::size_t>(parsed);
    }
    if (content_length > maxBodyBytes_) {
        reply(textResponse(413, "request body exceeds the " +
                                    std::to_string(maxBodyBytes_) +
                                    "-byte limit\n"));
        return;
    }

    request.body = data.substr(header_end + 4);
    while (request.body.size() < content_length) {
        ssize_t n = recvRetry(fd, buf, sizeof buf);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            reply(textResponse(408, "request body timed out\n"));
            return;
        }
        if (n <= 0) {
            reply(textResponse(400, "truncated request body\n"));
            return;
        }
        request.body.append(buf, static_cast<std::size_t>(n));
    }
    request.body.resize(content_length);

    // Dispatch: exact GET routes first, then the longest matching
    // method + prefix route.  A path known under some other method
    // answers 405 instead of 404.
    HttpResponse resp;
    const Handler *exact = nullptr;
    bool path_known = false;
    for (std::size_t i = 0; i < routes_.size(); ++i) {
        if (routes_[i].first == request.path) {
            exact = &routes_[i].second;
            path_known = true;
            if (request.method == "GET")
                routeIndex = i;
            break;
        }
    }
    if (exact != nullptr && request.method == "GET") {
        resp = (*exact)();
    } else {
        const PrefixRoute *best = nullptr;
        for (std::size_t i = 0; i < prefixRoutes_.size(); ++i) {
            const PrefixRoute &route = prefixRoutes_[i];
            if (request.path.rfind(route.prefix, 0) != 0)
                continue;
            path_known = true;
            if (route.method != request.method)
                continue;
            if (best == nullptr ||
                route.prefix.size() > best->prefix.size()) {
                best = &route;
                routeIndex = routes_.size() + i;
            }
        }
        if (best != nullptr) {
            resp = best->handler(request);
        } else if (path_known) {
            routeIndex =
                routeLatency_.empty() ? 0 : routeLatency_.size() - 1;
            resp = textResponse(405, "method " + request.method +
                                         " not allowed for " +
                                         request.path + "\n");
        } else {
            resp.status = 404;
            resp.body = "unknown path " + request.path + "; try:\n";
            for (const auto &[route, fn] : routes_)
                resp.body += "  GET " + route + "\n";
            for (const PrefixRoute &route : prefixRoutes_)
                resp.body +=
                    "  " + route.method + " " + route.prefix + "...\n";
        }
    }

    if (!resp.stream) {
        reply(resp);
        return;
    }

    // Chunked streaming response: the handler produces pieces on
    // this thread; each write returns whether the client is still
    // there so long-running producers can stop early.
    std::string head = "HTTP/1.1 ";
    head += std::to_string(resp.status);
    head += ' ';
    head += statusText(resp.status);
    head += "\r\nContent-Type: ";
    head += resp.contentType;
    head += "\r\nX-Request-Id: ";
    head += requestId;
    head += "\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    bool alive = writeAll(fd, head);
    std::size_t streamed = 0;
    ChunkWriter writer = [fd, &alive, &streamed](std::string_view piece) {
        if (!alive || piece.empty())
            return alive;
        char size_line[32];
        std::snprintf(size_line, sizeof size_line, "%zx\r\n",
                      piece.size());
        alive = writeAll(fd, size_line) && writeAll(fd, piece) &&
                writeAll(fd, "\r\n");
        if (alive)
            streamed += piece.size();
        return alive;
    };
    resp.stream(writer);
    if (alive)
        writeAll(fd, "0\r\n\r\n");
    recordAccess(method, path, requestId, resp.status, streamed,
                 elapsedUs(), routeIndex);
}

namespace
{

/** Decode a chunked transfer-encoded payload; false when malformed. */
bool
decodeChunked(std::string_view raw, std::string *out)
{
    std::size_t pos = 0;
    for (;;) {
        std::size_t eol = raw.find("\r\n", pos);
        if (eol == std::string_view::npos)
            return false;
        // Chunk extensions (";...") are legal; ignore them.
        std::string size_str(raw.substr(pos, eol - pos));
        std::size_t semi = size_str.find(';');
        if (semi != std::string::npos)
            size_str.resize(semi);
        char *end = nullptr;
        unsigned long long size =
            std::strtoull(size_str.c_str(), &end, 16);
        if (end == size_str.c_str())
            return false;
        pos = eol + 2;
        if (size == 0)
            return true; // trailers, if any, are ignored
        if (pos + size + 2 > raw.size())
            return false;
        out->append(raw.substr(pos, size));
        pos += size;
        if (raw.compare(pos, 2, "\r\n") != 0)
            return false;
        pos += 2;
    }
}

} // namespace

std::optional<HttpReply>
httpRequest(const std::string &addr, const std::string &method,
            const std::string &path, const std::string &body,
            const std::string &contentType, std::string *error,
            int timeoutMs, const std::string &requestId)
{
    std::string host;
    std::uint16_t port = 0;
    if (!parseAddr(addr, &host, &port, error))
        return std::nullopt;

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return std::nullopt;
    }
    setSocketTimeout(fd, timeoutMs);

    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(port);
    inet_pton(AF_INET, host.c_str(), &sin.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sin),
                  sizeof sin) < 0) {
        if (error)
            *error = "connect " + addr + ": " + std::strerror(errno);
        ::close(fd);
        return std::nullopt;
    }

    std::string request = method + " " + path + " HTTP/1.1\r\nHost: " +
                          addr + "\r\nConnection: close\r\n";
    if (!requestId.empty())
        request += "X-Request-Id: " + sanitizeRequestId(requestId) +
                   "\r\n";
    if (!body.empty()) {
        request += "Content-Type: " + contentType + "\r\n";
        request += "Content-Length: " + std::to_string(body.size()) +
                   "\r\n";
    }
    request += "\r\n";
    request += body;
    if (!writeAll(fd, request)) {
        if (error)
            *error = "send " + addr + ": " + std::strerror(errno);
        ::close(fd);
        return std::nullopt;
    }

    std::string response;
    char buf[4096];
    for (;;) {
        ssize_t n = recvRetry(fd, buf, sizeof buf);
        if (n < 0) {
            if (error)
                *error = "recv " + addr + ": " + std::strerror(errno);
            ::close(fd);
            return std::nullopt;
        }
        if (n == 0)
            break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    std::size_t header_end = response.find("\r\n\r\n");
    if (header_end == std::string::npos) {
        if (error)
            *error = "malformed HTTP response from " + addr;
        return std::nullopt;
    }
    // "HTTP/1.1 200 OK"
    std::size_t sp = response.find(' ');
    if (sp == std::string::npos || sp > header_end) {
        if (error)
            *error = "malformed HTTP status line from " + addr;
        return std::nullopt;
    }
    HttpReply reply;
    reply.status = std::atoi(response.c_str() + sp + 1);

    std::string_view headers =
        std::string_view(response).substr(0, header_end);
    reply.requestId = headerValue(headers, "x-request-id");
    std::string_view payload =
        std::string_view(response).substr(header_end + 4);
    std::string transfer = headerValue(headers, "transfer-encoding");
    if (asciiEqualsIgnoreCase(transfer, "chunked")) {
        if (!decodeChunked(payload, &reply.body)) {
            if (error)
                *error = "malformed chunked response from " + addr;
            return std::nullopt;
        }
    } else {
        std::string length_str = headerValue(headers, "content-length");
        reply.body.assign(payload);
        if (!length_str.empty()) {
            std::size_t length = static_cast<std::size_t>(
                std::strtoull(length_str.c_str(), nullptr, 10));
            if (reply.body.size() > length)
                reply.body.resize(length);
        }
    }
    return reply;
}

std::optional<std::string>
httpGet(const std::string &addr, const std::string &path,
        std::string *error, int timeoutMs)
{
    std::optional<HttpReply> reply =
        httpRequest(addr, "GET", path, "", "", error, timeoutMs);
    if (!reply)
        return std::nullopt;
    if (reply->status != 200) {
        if (error)
            *error = "HTTP status " + std::to_string(reply->status) +
                     " for " + path;
        return std::nullopt;
    }
    return std::move(reply->body);
}

} // namespace vsnoop

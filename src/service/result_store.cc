#include "service/result_store.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <tuple>
#include <vector>

#include "service/sweep_wire.hh"
#include "sim/logging.hh"
#include "sim/slog.hh"

namespace fs = std::filesystem;

namespace vsnoop
{

namespace
{

bool
readWholeFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    return in.good() || in.eof();
}

} // namespace

bool
ResultStore::open(const std::string &dir, std::uint64_t maxBytes,
                  std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    vsnoop_assert(!opened_, "result store opened twice");

    std::error_code ec;
    fs::create_directories(fs::path(dir) / "objects", ec);
    if (ec) {
        if (error)
            *error = "cannot create '" + dir + "': " + ec.message();
        return false;
    }
    dir_ = dir;
    maxBytes_ = maxBytes;

    // Recency is not persisted: adopt every object as last used when
    // it was written.  Sorting (mtime, name, bytes) puts the oldest
    // first and breaks ties within one timestamp tick by name.
    std::vector<std::tuple<fs::file_time_type, std::string, std::uint64_t>>
        found;
    for (const fs::directory_entry &object :
         fs::directory_iterator(fs::path(dir_) / "objects", ec)) {
        if (!object.is_regular_file())
            continue;
        std::string name = object.path().filename().string();
        // Skip temp files left by a crash mid-put.
        if (name.find(".tmp") != std::string::npos) {
            fs::remove(object.path(), ec);
            continue;
        }
        fs::file_time_type mtime = object.last_write_time(ec);
        std::uint64_t size = ec ? 0 : object.file_size(ec);
        if (!ec)
            found.emplace_back(mtime, std::move(name), size);
    }
    std::sort(found.begin(), found.end());
    for (auto &[mtime, name, size] : found) {
        lru_.push_back(std::move(name));
        entries_[lru_.back()] = Entry{size, std::prev(lru_.end())};
        bytes_ += size;
    }
    // Older builds kept an LRU index beside objects/.
    for (const char *stale : {"index", "index.tmp"})
        fs::remove(fs::path(dir_) / stale, ec);

    opened_ = true;
    evictLocked("");
    evictExpiredLocked();
    return true;
}

void
ResultStore::setMaxAge(std::int64_t seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    maxAgeSeconds_ = seconds < 0 ? 0 : seconds;
}

std::int64_t
ResultStore::maxAgeSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return maxAgeSeconds_;
}

std::size_t
ResultStore::evictExpired()
{
    std::lock_guard<std::mutex> lock(mutex_);
    vsnoop_assert(opened_, "result store used before open()");
    return evictExpiredLocked();
}

std::size_t
ResultStore::evictExpiredLocked()
{
    if (maxAgeSeconds_ <= 0)
        return 0;
    auto now = fs::file_time_type::clock::now();
    // Collect first: dropLocked() mutates entries_ mid-iteration.
    std::vector<std::pair<std::string, std::int64_t>> victims;
    for (const auto &[hash, entry] : entries_) {
        std::error_code ec;
        fs::file_time_type mtime =
            fs::last_write_time(objectPath(hash), ec);
        // An unstattable object is gone anyway; age it out too.
        std::int64_t age =
            ec ? -1
               : std::chrono::duration_cast<std::chrono::seconds>(
                     now - mtime)
                     .count();
        if (ec || age > maxAgeSeconds_)
            victims.emplace_back(hash, age);
    }
    for (const auto &[hash, age] : victims) {
        dropLocked(hash, true);
        ++expired_;
        slog().log(LogLevel::Info, "store_expired",
                   {LogField("object", hash),
                    LogField("age_s", age),
                    LogField("max_age_s", maxAgeSeconds_)});
    }
    return victims.size();
}

std::string
ResultStore::objectPath(const std::string &hash) const
{
    return (fs::path(dir_) / "objects" / hash).string();
}

void
ResultStore::touchLocked(const std::string &hash)
{
    auto it = entries_.find(hash);
    lru_.splice(lru_.end(), lru_, it->second.lruPos);
    it->second.lruPos = std::prev(lru_.end());
}

void
ResultStore::dropLocked(const std::string &hash, bool unlink)
{
    auto it = entries_.find(hash);
    if (it == entries_.end())
        return;
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lruPos);
    entries_.erase(it);
    if (unlink) {
        std::error_code ec;
        fs::remove(objectPath(hash), ec);
    }
}

void
ResultStore::evictLocked(const std::string &keepHash)
{
    while (bytes_ > maxBytes_ && !lru_.empty()) {
        // A copy: dropLocked() erases the list node that holds it.
        std::string victim = lru_.front();
        if (victim == keepHash)
            break; // never evict the entry just inserted
        dropLocked(victim, true);
        ++evictions_;
    }
}

std::optional<std::string>
ResultStore::get(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    vsnoop_assert(opened_, "result store used before open()");
    std::string hash = contentHash(key);
    auto it = entries_.find(hash);
    if (it == entries_.end()) {
        ++misses_;
        return std::nullopt;
    }
    // put() writes "<key>\n<record>\n"; anything else is a torn
    // write, a hash collision or tampering: recompute.
    std::string content;
    const std::size_t head = key.size() + 1;
    if (!readWholeFile(objectPath(hash), &content) ||
        content.size() <= head || content.compare(0, key.size(), key) != 0 ||
        content[key.size()] != '\n' || content.back() != '\n') {
        dropLocked(hash, true);
        ++corrupt_;
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    touchLocked(hash);
    return content.substr(head, content.size() - head - 1);
}

void
ResultStore::put(const std::string &key, const std::string &record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    vsnoop_assert(opened_, "result store used before open()");
    std::string hash = contentHash(key);

    std::string content = key;
    content += '\n';
    content += record;
    content += '\n';

    // Stage next to the final name so rename() stays same-device
    // atomic; puts are serialized by mutex_, so the name is safe.
    std::string tmp = objectPath(hash) + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        if (!out.good()) {
            ++writeFailures_;
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    if (std::rename(tmp.c_str(), objectPath(hash).c_str()) != 0) {
        ++writeFailures_;
        std::error_code ec;
        fs::remove(tmp, ec);
        return;
    }

    dropLocked(hash, false); // replace a colliding entry's accounting
    lru_.push_back(hash);
    entries_[hash] = Entry{content.size(), std::prev(lru_.end())};
    bytes_ += content.size();
    ++insertions_;
    evictLocked(hash);
}

std::uint64_t
ResultStore::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::uint64_t
ResultStore::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

void
ResultStore::registerMetrics(MetricsRegistry &registry) const
{
    registry.addCounter("vsnoop_store_hits_total",
                        "Result-store cache hits", atomicSource(hits_));
    registry.addCounter("vsnoop_store_misses_total",
                        "Result-store cache misses",
                        atomicSource(misses_));
    registry.addCounter("vsnoop_store_insertions_total",
                        "Records inserted into the result store",
                        atomicSource(insertions_));
    registry.addCounter("vsnoop_store_evictions_total",
                        "Records evicted to stay under the byte cap",
                        atomicSource(evictions_));
    registry.addCounter(
        "vsnoop_store_corrupt_dropped_total",
        "Entries dropped because their object was missing or torn",
        atomicSource(corrupt_));
    // Counts object writes only; the help text is kept byte-stable
    // as part of the served exposition (tests/golden/served.prom).
    registry.addCounter("vsnoop_store_write_failures_total",
                        "Failed object or index writes",
                        atomicSource(writeFailures_));
    registry.addCounter("vsnoop_store_expired_total",
                        "Records evicted for exceeding the age cutoff",
                        atomicSource(expired_));
    registry.addGauge("vsnoop_store_entries", "Records currently cached",
                      [this] { return static_cast<double>(entryCount()); });
    registry.addGauge("vsnoop_store_bytes",
                      "Bytes of cached objects on disk",
                      [this] { return static_cast<double>(totalBytes()); });
}

} // namespace vsnoop

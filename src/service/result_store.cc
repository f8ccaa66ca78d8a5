#include "service/result_store.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
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

    // The index orders known hashes least-recent first; objects it
    // mentions that are gone are skipped, objects it misses are
    // adopted afterwards (as most recent, since nothing more is
    // known about them).
    std::string index_text;
    if (readWholeFile((fs::path(dir_) / "index").string(),
                      &index_text)) {
        std::size_t pos = 0;
        while (pos < index_text.size()) {
            std::size_t eol = index_text.find('\n', pos);
            if (eol == std::string::npos)
                eol = index_text.size();
            std::string line = index_text.substr(pos, eol - pos);
            pos = eol + 1;
            std::size_t space = line.find(' ');
            if (space == std::string::npos)
                continue;
            std::string hash = line.substr(0, space);
            std::uint64_t size = fs::file_size(objectPath(hash), ec);
            if (ec || entries_.count(hash) != 0)
                continue;
            lru_.push_back(hash);
            entries_[hash] = Entry{size, std::prev(lru_.end())};
            bytes_ += size;
        }
    }
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
        if (entries_.count(name) != 0)
            continue;
        std::uint64_t size = object.file_size(ec);
        if (ec)
            continue;
        lru_.push_back(name);
        entries_[name] = Entry{size, std::prev(lru_.end())};
        bytes_ += size;
    }

    opened_ = true;
    evictLocked("");
    evictExpiredLocked();
    rewriteIndexLocked();
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
    std::size_t evicted = evictExpiredLocked();
    if (evicted > 0)
        rewriteIndexLocked();
    return evicted;
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

void
ResultStore::rewriteIndexLocked()
{
    std::string tmp = (fs::path(dir_) / "index.tmp").string();
    std::string final_path = (fs::path(dir_) / "index").string();
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        for (const std::string &hash : lru_)
            out << hash << ' ' << entries_[hash].bytes << '\n';
        if (!out.good()) {
            ++writeFailures_;
            return;
        }
    }
    if (std::rename(tmp.c_str(), final_path.c_str()) != 0)
        ++writeFailures_;
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
    std::string content;
    if (!readWholeFile(objectPath(hash), &content)) {
        dropLocked(hash, true);
        ++corrupt_;
        ++misses_;
        rewriteIndexLocked();
        return std::nullopt;
    }
    std::size_t eol = content.find('\n');
    if (eol == std::string::npos || content.compare(0, eol, key) != 0 ||
        eol + 1 >= content.size()) {
        // Torn write, hash collision, or tampering: recompute.
        dropLocked(hash, true);
        ++corrupt_;
        ++misses_;
        rewriteIndexLocked();
        return std::nullopt;
    }
    std::string record = content.substr(eol + 1);
    if (record.back() == '\n')
        record.pop_back();
    ++hits_;
    touchLocked(hash);
    rewriteIndexLocked();
    return record;
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
    rewriteIndexLocked();
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

/**
 * @file
 * On-disk content-addressed cache of finished run records.
 *
 * The serving shape the ROADMAP targets — many clients asking
 * what-if questions against mostly-repeated configurations — only
 * works if a finished run is never recomputed.  Byte-identical
 * determinism (PR 1) makes that safe: a run record is a pure
 * function of its canonical cache key (service/sweep_wire.hh:
 * full resolved config + app + seed + build provenance), so the
 * store can hand back cached bytes as if the run had just executed.
 *
 * The store's only on-disk state is objects/<hash>, one file per
 * entry: line 1 is the canonical key, the rest is the run's JSON
 * record and a final newline.  Each is written to a temp file and
 * rename()d into place, so readers never observe a torn entry and
 * a crash leaves at most an orphaned temp file.
 *
 * Recency is kept only in memory: a hit moves its entry in the LRU
 * list and writes nothing.  open() rebuilds the list with one scan
 * of objects/, oldest-written first, so after a restart eviction
 * starts from the oldest-written records, not the least recently
 * used ones.
 *
 * Eviction is by total object bytes (maxBytes), least-recently-used
 * first; the entry just inserted is never evicted even when it
 * alone exceeds the cap.  Independently, setMaxAge() bounds how
 * long an object may live since it was written: evictExpired()
 * (run at open() and periodically by the serving loop) drops every
 * object whose file mtime is older than the cutoff, regardless of
 * recency of use — a sweep result computed by a stale build ages
 * out even while it keeps getting hits.  A get() whose object is
 * missing, torn (no final newline), or keyed differently than
 * requested (hash collision or manual tampering) drops the entry
 * and reports a miss — corruption heals by recomputation, never by
 * serving wrong bytes.
 *
 * All operations are serialized by an internal mutex; the store is
 * safe to share between HTTP workers and sweep workers.
 */

#ifndef VSNOOP_SERVICE_RESULT_STORE_HH_
#define VSNOOP_SERVICE_RESULT_STORE_HH_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/metrics.hh"

namespace vsnoop
{

class ResultStore
{
  public:
    ResultStore() = default;

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Bind the store to @p dir (created if absent), adopt every
     * object under it oldest-written first, and evict down to
     * @p maxBytes.  Returns false with @p error set when the
     * directory cannot be created or read.  Must be called
     * (successfully) before get()/put().
     */
    bool open(const std::string &dir, std::uint64_t maxBytes,
              std::string *error = nullptr);

    /**
     * The record stored under @p key (a canonical runCacheKey()
     * string, not a hash), or nullopt.  Counts one hit or one miss;
     * a hit refreshes the entry's recency in memory only.
     */
    std::optional<std::string> get(const std::string &key);

    /**
     * Store @p record under @p key; overwrites a hash-colliding
     * entry, refreshes recency, then evicts LRU entries while over
     * the byte cap.  Failures to write (disk full, permissions) are
     * counted and the entry is dropped — the cache stays a cache.
     */
    void put(const std::string &key, const std::string &record);

    /**
     * Age cutoff for evictExpired(), in seconds since the object
     * file was written; 0 (the default) disables age GC.  Set
     * before open() so the opening scan already applies it.
     */
    void setMaxAge(std::int64_t seconds);
    std::int64_t maxAgeSeconds() const;

    /**
     * Drop every object older than the cutoff (one structured
     * "store_expired" log line each).  Returns how many were
     * evicted; 0 when age GC is disabled.
     */
    std::size_t evictExpired();

    /** Entries evicted by age (evictExpired()) since open(). */
    std::uint64_t expired() const { return expired_.load(); }

    /** @{ Counters since open(). */
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t insertions() const { return insertions_.load(); }
    std::uint64_t evictions() const { return evictions_.load(); }
    /** Entries dropped because their object was missing/torn. */
    std::uint64_t corruptDropped() const { return corrupt_.load(); }
    /** Failed object writes (the entry is dropped, not stored). */
    std::uint64_t writeFailures() const
    {
        return writeFailures_.load();
    }
    /** @} */

    /** @{ Current occupancy. */
    std::uint64_t entryCount() const;
    std::uint64_t totalBytes() const;
    /** @} */

    /**
     * Register the store's series with @p registry (before its
     * freeze()).  The store must outlive the registry's last
     * publish().
     */
    void registerMetrics(MetricsRegistry &registry) const;

  private:
    struct Entry
    {
        std::uint64_t bytes = 0;
        /** Position in lru_ (front = least recently used). */
        std::list<std::string>::iterator lruPos;
    };

    std::string objectPath(const std::string &hash) const;
    std::size_t evictExpiredLocked();
    void touchLocked(const std::string &hash);
    void dropLocked(const std::string &hash, bool unlink);
    void evictLocked(const std::string &keepHash);

    mutable std::mutex mutex_;
    std::string dir_;
    std::uint64_t maxBytes_ = 0;
    std::int64_t maxAgeSeconds_ = 0;
    bool opened_ = false;
    /** hash -> entry; lru_ holds hashes, least recent first. */
    std::unordered_map<std::string, Entry> entries_;
    std::list<std::string> lru_;
    std::uint64_t bytes_ = 0;

    /** Mutated under mutex_; atomic so accessors can skip it. */
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> insertions_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> writeFailures_{0};
    std::atomic<std::uint64_t> expired_{0};
};

} // namespace vsnoop

#endif // VSNOOP_SERVICE_RESULT_STORE_HH_

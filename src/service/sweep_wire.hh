/**
 * @file
 * Wire format for sweep submissions and content-addressed run keys.
 *
 * The job API (src/service/job_api.hh) accepts a sweep matrix as
 * one JSON object; this header owns that format and the canonical
 * cache key the ResultStore is addressed by.  The "config" object
 * of a submission is decoded and encoded by the knob table
 * (system/config_schema.hh), which also writes the "config" block
 * of run records, so a config copied out of archived sweep output
 * resubmits as-is.  Unknown config keys are rejected rather than
 * ignored — a typoed knob silently falling back to a default would
 * poison the cache with mislabeled runs.
 *
 * The cache key is a canonical compact JSON rendering of everything
 * that can change a run record's bytes: the full resolved
 * SystemConfig (every table row, not just the wire-settable ones,
 * plus a placement trace's hash), the app name, the seed, and the
 * build provenance (tool version + git describe), so a rebuild after
 * a source change never serves stale results.  Keys hash to 32
 * lowercase hex characters (two independent 64-bit FNV-1a passes)
 * for use as object file names.
 */

#ifndef VSNOOP_SERVICE_SWEEP_WIRE_HH_
#define VSNOOP_SERVICE_SWEEP_WIRE_HH_

#include <string>
#include <string_view>

#include "system/sweep.hh"

namespace vsnoop
{

class JsonValue;

/**
 * One parsed job submission: the matrix to run plus an optional
 * client-supplied label echoed back in job status.
 */
struct SweepRequest
{
    SweepMatrix matrix;
    std::string label;
};

/**
 * Serialize @p matrix (and an optional @p label) as a submission
 * document: {"apps":[...],"policies":[...],"relocations":[...],
 * "ro_policies":[...],"seeds":[...],"label":...,"config":{...}}.
 * Every config key is written, so parse(serialize(m)) reproduces
 * the matrix exactly.
 */
std::string writeSweepRequestJson(const SweepMatrix &matrix,
                                  const std::string &label = "");

/**
 * Parse a submission document into @p out.  Returns false with a
 * one-line @p error on a malformed document: missing/empty "apps",
 * an unknown app name, a bad enum token, an unknown config key, a
 * mistyped value, or a config the simulator would reject (zero
 * mesh, more vCPUs than cores, ...).  Absent axes keep SweepMatrix
 * defaults; absent config keys keep SystemConfig defaults.
 */
bool parseSweepRequest(const JsonValue &root, SweepRequest *out,
                       std::string *error);

/**
 * The canonical identity of one run: compact JSON over the full
 * resolved config + app + seed + build provenance (see file
 * comment).  Equal keys imply byte-identical run records.
 */
std::string runCacheKey(const SystemConfig &config,
                        const std::string &app);

/** 32-hex-char content hash of @p text (2x 64-bit FNV-1a). */
std::string contentHash(std::string_view text);

} // namespace vsnoop

#endif // VSNOOP_SERVICE_SWEEP_WIRE_HH_

#include "system/config_schema.hh"

#include <algorithm>
#include <limits>
#include <ostream>
#include <type_traits>

#include "mem/addr.hh"
#include "sim/cli.hh"
#include "sim/core_set.hh"
#include "sim/json.hh"

namespace vsnoop
{

namespace
{

/** A knob's accessor: a captureless lambda decayed to a pointer. */
#define VSNOOP_FIELD(member)                                            \
    +[](SystemConfig &c) -> auto & { return c.member; }

/** Record, wire and cache key alike. */
constexpr std::uint8_t kEverywhere = kInRecord | kInWire;

/*
 * Rows in run-record order.  The extra-only rows sit between the
 * wire rows and watch_pages because the cache key's "extra" block
 * lists them before watch_pages; each section writes its own rows
 * in table order.
 */
const Knob kKnobs[] = {
    {"mesh_width", kEverywhere, VSNOOP_FIELD(mesh.width), "--mesh", "WxH",
     "mesh geometry (default 4x4)"},
    {"mesh_height", kEverywhere, VSNOOP_FIELD(mesh.height), "--mesh"},
    {"ideal_network", kEverywhere, VSNOOP_FIELD(idealNetwork),
     "--ideal-network", nullptr,
     "use a contention-free crossbar instead of the mesh"},
    {"vms", kEverywhere, VSNOOP_FIELD(numVms), "--vms", "N",
     "virtual machines (default 4)"},
    {"vcpus_per_vm", kEverywhere, VSNOOP_FIELD(vcpusPerVm), "--vcpus", "N",
     "vCPUs per VM (default 4)"},
    {"l2_bytes", kEverywhere, VSNOOP_FIELD(l2.sizeBytes), "--l2-kb", "N",
     "private L2 size in KB (default 256)", 1024},
    {"l1_bytes", kEverywhere, VSNOOP_FIELD(l2.l1SizeBytes), "--l1-kb", "N",
     "model private L1s of N KB (default off; generators emit "
     "post-L1 streams)",
     1024},
    {"accesses_per_vcpu", kEverywhere, VSNOOP_FIELD(accessesPerVcpu),
     "--accesses", "N", "accesses per vCPU (default 20000)"},
    {"warmup_accesses_per_vcpu", kEverywhere,
     VSNOOP_FIELD(warmupAccessesPerVcpu), "--warmup", "N",
     "warmup accesses per vCPU (default accesses/4)"},
    {"migration_period", kEverywhere, VSNOOP_FIELD(migrationPeriod),
     "--migration-period", "T",
     "ticks between vCPU shuffles (default 0 = pinned)"},
    {"counter_threshold", kEverywhere,
     VSNOOP_FIELD(vsnoop.counterThreshold), "--threshold", "N",
     "counter threshold (default 10)"},
    {"region_bytes", kEverywhere, VSNOOP_FIELD(regionBytes),
     "--region-bytes", "N", "region filter granularity (default 1024)"},
    {"crossbar_latency", kEverywhere, VSNOOP_FIELD(crossbarLatency)},
    {"link_bytes", kEverywhere, VSNOOP_FIELD(mesh.linkBytes)},
    {"router_pipeline", kEverywhere, VSNOOP_FIELD(mesh.routerPipeline)},
    {"link_latency", kEverywhere, VSNOOP_FIELD(mesh.linkLatency)},
    {"l1_latency", kEverywhere, VSNOOP_FIELD(protocol.l1Latency)},
    {"l2_latency", kEverywhere, VSNOOP_FIELD(protocol.l2Latency)},
    {"mem_latency", kEverywhere, VSNOOP_FIELD(protocol.memLatency)},
    {"retry_window", kEverywhere, VSNOOP_FIELD(protocol.retryWindow)},
    {"max_transient_attempts", kEverywhere,
     VSNOOP_FIELD(protocol.maxTransientAttempts)},
    {"persistent_window", kEverywhere,
     VSNOOP_FIELD(protocol.persistentWindow)},
    {"broadcast_attempt", kEverywhere,
     VSNOOP_FIELD(vsnoop.broadcastAttempt)},
    {"map_sync_bytes", kEverywhere, VSNOOP_FIELD(vsnoop.mapSyncBytes)},
    {"ro_token_bundle", kEverywhere, VSNOOP_FIELD(vsnoop.roTokenBundle)},
    {"content_scan", kEverywhere, VSNOOP_FIELD(contentScan)},
    {"content_scan_period", kEverywhere, VSNOOP_FIELD(contentScanPeriod)},
    {"timeseries_interval", kEverywhere, VSNOOP_FIELD(timeseriesInterval),
     "--timeseries-interval", "T",
     "sample the interval time series every T ticks into the JSON "
     "record and the trace's counter track (default 0 = off)"},
    {"tag_lookup_cycles", kEverywhere,
     VSNOOP_FIELD(protocol.tagLookupCycles)},
    {"perf", kEverywhere, VSNOOP_FIELD(perf), "--perf", nullptr,
     "collect simulator-internals counters (event-queue occupancy, "
     "hash-table probe lengths, pool watermarks, mesh backlog) into "
     "results.perf; vsnoopsweep --stats-addr also aggregates them as "
     "vsnoop_perf_* series. Off by default, and records are "
     "byte-identical to a non---perf run when off",
     1, 0, &SystemConfig::perf},
    {"perf_sample_interval", kEverywhere, VSNOOP_FIELD(perfSampleInterval),
     "--perf-sample-interval", "T",
     "sample perf occupancy histograms every T ticks (default 10000; "
     "a nonzero --timeseries-interval takes precedence for the shared "
     "sampling chain)",
     1, 0, &SystemConfig::perf},
    {"pages", kEverywhere, VSNOOP_FIELD(pages), "--pages", nullptr,
     "attribute snoop activity to host pages: a bounded top-K "
     "per-page table, lifecycle transitions and a mapped-page census "
     "in results.pages (and vsnoop_pages_* series under vsnoopsweep "
     "--stats-addr); the top-K lookups plus the truncated remainder "
     "equal snoop_lookups exactly. Off by default, and records are "
     "byte-identical to a non---pages run when off",
     1, 0, &SystemConfig::pages},
    {"pages_top", kEverywhere, VSNOOP_FIELD(pagesTop), "--pages-top", "K",
     "heavy-hitter capacity for --pages (default 64)", 1, 1,
     &SystemConfig::pages},
    {"l2_ways", kInExtra, VSNOOP_FIELD(l2.ways)},
    {"l1_ways", kInExtra, VSNOOP_FIELD(l2.l1Ways)},
    {"local_latency", kInExtra, VSNOOP_FIELD(mesh.localLatency)},
    {"mem_token_latency", kInExtra, VSNOOP_FIELD(protocol.memTokenLatency)},
    {"control_bytes", kInExtra, VSNOOP_FIELD(protocol.controlBytes)},
    {"data_bytes", kInExtra, VSNOOP_FIELD(protocol.dataBytes)},
    {"hypervisor_pages", kInExtra,
     VSNOOP_FIELD(hypervisor.hypervisorPages)},
    {"per_vm_shared_pages", kInExtra,
     VSNOOP_FIELD(hypervisor.perVmSharedPages)},
    {"channel_pages", kInExtra, VSNOOP_FIELD(hypervisor.channelPages)},
    {"trace_ticks_per_ms", kInExtra, VSNOOP_FIELD(traceTicksPerMs)},
    {"invariant_check_period", kInExtra,
     VSNOOP_FIELD(invariantCheckPeriod)},
    {"capture_trace", kInExtra, VSNOOP_FIELD(captureTrace)},
    {"trace_limit", kInExtra, VSNOOP_FIELD(traceLimit), "--trace-limit",
     "N",
     "trace ring capacity in records (default 1048576; the oldest "
     "records are dropped when full)",
     1, 1},
    // Watchpoints filter the trace, so they key the cache; vsnoopsim
    // sets them with --watch-page.
    {"watch_pages", kInRecord | kInExtra, VSNOOP_FIELD(watchPages)},
};

#undef VSNOOP_FIELD

} // namespace

std::span<const Knob>
knobs()
{
    return kKnobs;
}

void
writeKnobs(JsonWriter &json, const SystemConfig &config, KnobIn section)
{
    for (const Knob &knob : kKnobs) {
        if (!(knob.in & section))
            continue;
        if (section == kInRecord && knob.gate && !(config.*knob.gate))
            continue;
        std::visit(
            [&](auto get) {
                // The accessors take a mutable config; this only reads.
                const auto &v = get(const_cast<SystemConfig &>(config));
                using T = std::decay_t<decltype(v)>;
                if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
                    if (v.empty())
                        return;
                    json.key(knob.key).beginArray();
                    for (std::uint64_t item : v)
                        json.value(item);
                    json.endArray();
                } else {
                    json.key(knob.key).value(v);
                }
            },
            knob.field);
    }
}

WireKnob
applyWireKnob(const std::string &key, const JsonValue &value,
              SystemConfig *config)
{
    auto knob = std::find_if(
        std::begin(kKnobs), std::end(kKnobs), [&](const Knob &k) {
            return (k.in & kInWire) && key == k.key;
        });
    if (knob == std::end(kKnobs))
        return WireKnob::UnknownKey;
    bool ok = false;
    std::visit(
        [&](auto get) {
            auto &field = get(*config);
            using T = std::decay_t<decltype(field)>;
            if constexpr (std::is_same_v<T, bool>) {
                if ((ok = value.kind() == JsonValue::Kind::Bool))
                    field = value.boolean();
            } else if constexpr (std::is_integral_v<T>) {
                std::optional<std::uint64_t> u =
                    value.uinteger(std::numeric_limits<T>::max());
                if ((ok = u && *u >= knob->min))
                    field = static_cast<T>(*u);
            } else {
                (void)field;
                vsnoop_panic("wire knob ", key, " has no JSON decoding");
            }
        },
        knob->field);
    return ok ? WireKnob::Applied : WireKnob::BadValue;
}

bool
validateConfig(const SystemConfig &c, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (c.mesh.width < 1 || c.mesh.height < 1)
        return fail("mesh_width and mesh_height must be at least 1");
    // CoreSet is one 64-bit mask; the product is taken in 64 bits so
    // no wrapped mesh slips under the limit.
    std::uint64_t cores = std::uint64_t(c.mesh.width) * c.mesh.height;
    if (cores > CoreSet::kMaxCores)
        return fail("mesh " + std::to_string(c.mesh.width) + "x" +
                    std::to_string(c.mesh.height) + " has " +
                    std::to_string(cores) + " cores; at most " +
                    std::to_string(CoreSet::kMaxCores) +
                    " are supported");
    if (c.mesh.linkBytes < 1)
        return fail("link_bytes must be at least 1");
    if (c.numVms < 1 || c.vcpusPerVm < 1)
        return fail("vms and vcpus_per_vm must be at least 1");
    std::uint64_t vcpus =
        std::uint64_t(c.numVms) * std::uint64_t(c.vcpusPerVm);
    if (vcpus > c.numCores())
        return fail("overcommitted: " + std::to_string(vcpus) +
                    " vCPUs on " + std::to_string(c.numCores()) +
                    " cores");
    // The L2 asserts lines >= ways and lines % ways == 0.
    std::uint64_t l2_granule = kLineBytes * 8 /* ways */;
    if (c.l2.sizeBytes < l2_granule || c.l2.sizeBytes % l2_granule != 0)
        return fail("l2_bytes must be a positive multiple of " +
                    std::to_string(l2_granule));
    std::uint64_t l1_granule = kLineBytes * 4 /* l1 ways */;
    if (c.l2.l1SizeBytes != 0 &&
        (c.l2.l1SizeBytes < l1_granule ||
         c.l2.l1SizeBytes % l1_granule != 0))
        return fail("l1_bytes must be 0 or a positive multiple of " +
                    std::to_string(l1_granule));
    // The caches' line arrays are allocated and initialised up front,
    // 40 host bytes per simulated 64-byte line (the line, its tag and
    // its LRU stamp), so bound the machine's total: 64x the paper's
    // 4 MiB.  Each size is checked alone first so the product cannot
    // wrap.
    constexpr std::uint64_t kMaxCacheBytes = std::uint64_t{256} << 20;
    if (c.l2.sizeBytes > kMaxCacheBytes ||
        c.l2.l1SizeBytes > kMaxCacheBytes ||
        (c.l2.sizeBytes + c.l2.l1SizeBytes) * cores > kMaxCacheBytes)
        return fail("(l2_bytes + l1_bytes) x " + std::to_string(cores) +
                    " cores exceeds the " +
                    std::to_string(kMaxCacheBytes) +
                    "-byte (256 MiB) simulated cache limit");
    // PageMon reserves 2 x pages_top cells up front.
    constexpr std::uint32_t kMaxPagesTop = 65536;
    if (c.pagesTop > kMaxPagesTop)
        return fail("pages_top must be at most " +
                    std::to_string(kMaxPagesTop));
    if (c.regionBytes < kLineBytes)
        return fail("region_bytes must be at least " +
                    std::to_string(kLineBytes));
    if (c.accessesPerVcpu < 1)
        return fail("accesses_per_vcpu must be at least 1");
    return true;
}

ConfigFlags::ConfigFlags(SystemConfig *config) : config_(config)
{
    config_->accessesPerVcpu = 20000;
}

bool
ConfigFlags::consume(cli::Args &args)
{
    const std::string flag = args.flag();
    auto first = std::find_if(
        std::begin(kKnobs), std::end(kKnobs), [&](const Knob &k) {
            return k.flag != nullptr && flag == k.flag;
        });
    if (first == std::end(kKnobs))
        return false;
    auto last = first + 1;
    while (last != std::end(kKnobs) && last->flag != nullptr &&
           flag == last->flag)
        ++last;

    // One value part per row: all but the last end at an 'x'.
    std::vector<std::string> parts;
    if (first->metavar != nullptr) {
        std::string value = args.value();
        std::size_t start = 0;
        for (auto knob = first + 1; knob != last; ++knob) {
            std::size_t x = value.find('x', start);
            if (x == std::string::npos)
                cli::die(flag + " expects " + first->metavar + ", got '" +
                         value + "'");
            parts.push_back(value.substr(start, x - start));
            start = x + 1;
        }
        parts.push_back(value.substr(start));
    }

    for (auto knob = first; knob != last; ++knob) {
        std::visit(
            [&](auto get) {
                auto &field = get(*config_);
                using T = std::decay_t<decltype(field)>;
                if constexpr (std::is_same_v<T, bool>) {
                    field = true;
                } else if constexpr (std::is_integral_v<T>) {
                    std::uint64_t v = cli::parseUint(
                        flag, parts[knob - first],
                        std::numeric_limits<T>::max() / knob->scale);
                    if (v < knob->min)
                        cli::die(flag + " must be at least " +
                                 std::to_string(knob->min));
                    field = static_cast<T>(v * knob->scale);
                    warmupGiven_ |= static_cast<void *>(&field) ==
                                    &config_->warmupAccessesPerVcpu;
                } else {
                    (void)field;
                    vsnoop_panic("flag ", flag, " has no CLI decoding");
                }
            },
            knob->field);
    }
    return true;
}

void
ConfigFlags::finish()
{
    if (!warmupGiven_)
        config_->warmupAccessesPerVcpu = config_->accessesPerVcpu / 4;
    std::string error;
    if (!validateConfig(*config_, &error))
        cli::die(error);
}

void
ConfigFlags::writeUsage(std::ostream &os)
{
    // "  --flag META" then the help text, word-wrapped in a column
    // starting at kHelpColumn (on the next line when the flag is
    // too wide), like the tools' hand-written entries.
    constexpr std::size_t kHelpColumn = 24;
    constexpr std::size_t kWidth = 64;
    const Knob *previous = nullptr;
    for (const Knob &knob : kKnobs) {
        if (knob.flag == nullptr ||
            (previous != nullptr &&
             std::string_view(previous->flag) == knob.flag))
            continue;
        previous = &knob;
        std::string line = std::string("  ") + knob.flag;
        if (knob.metavar != nullptr)
            line += std::string(" ") + knob.metavar;
        if (line.size() >= kHelpColumn - 1) {
            os << line << "\n";
            line.clear();
        }
        std::string_view help = knob.help;
        while (!help.empty()) {
            std::size_t space = help.find(' ');
            std::string_view word = help.substr(0, space);
            help.remove_prefix(std::min(help.size(), word.size() + 1));
            if (line.size() > kHelpColumn &&
                line.size() + 1 + word.size() > kWidth) {
                os << line << "\n";
                line.clear();
            }
            if (line.size() < kHelpColumn)
                line.append(kHelpColumn - line.size(), ' ');
            else
                line += ' ';
            line += word;
        }
        os << line << "\n";
    }
}

} // namespace vsnoop

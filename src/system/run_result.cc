#include "system/run_result.hh"

#include <algorithm>
#include <fstream>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/version.hh"
#include "trace/chrome_trace.hh"
#include "trace/trace.hh"

namespace vsnoop
{

void
writeBuildMeta(JsonWriter &json)
{
    json.key("meta").beginObject();
    json.key("tool").value("vsnoop");
    json.key("version").value(toolVersion());
    json.key("git").value(gitDescribe());
    json.key("compiler").value(compilerId());
    json.key("build_type").value(buildType());
    json.endObject();
}

void
writeRunPoint(JsonWriter &json, const std::string &app,
              const SystemConfig &config)
{
    json.key("app").value(app);
    json.key("policy").value(enumToken(config.policy));
    json.key("relocation")
        .value(enumToken(config.vsnoop.relocation));
    json.key("ro_policy").value(enumToken(config.vsnoop.roPolicy));
    json.key("seed").value(config.seed);
}

void
RunResult::writeJson(JsonWriter &json) const
{
    json.beginObject();
    writeBuildMeta(json);
    writeRunPoint(json, app, config);
    json.key("config").beginObject();
    writeKnobs(json, config, kInRecord);
    json.endObject();

    const SystemResults &r = results;
    json.key("results").beginObject();
    json.key("runtime").value(r.runtime);
    json.key("accesses").value(r.totalAccesses);
    json.key("misses").value(r.totalMisses);
    json.key("transactions").value(r.transactions);
    json.key("snoop_lookups").value(r.snoopLookups);
    json.key("snoops_per_transaction")
        .value(static_cast<double>(r.snoopLookups) /
               static_cast<double>(
                   std::max<std::uint64_t>(1, r.transactions)));
    json.key("traffic_byte_hops").value(r.trafficByteHops);
    json.key("mean_miss_latency").value(r.meanMissLatency);
    json.key("mean_ro_miss_latency").value(r.meanRoMissLatency);
    json.key("retries").value(r.retries);
    json.key("persistent_requests").value(r.persistentRequests);
    json.key("dirty_writebacks").value(r.dirtyWritebacks);
    json.key("migrations").value(r.migrations);
    json.key("map_adds").value(r.mapAdds);
    json.key("map_removals").value(r.mapRemovals);
    json.key("data_from").beginObject();
    for (std::size_t i = 0; i < kNumDataSources; ++i)
        json.key(dataSourceName(static_cast<DataSource>(i)))
            .value(r.dataFrom[i]);
    json.endObject();
    json.key("ro_data_from").beginObject();
    for (std::size_t i = 0; i < kNumDataSources; ++i)
        json.key(dataSourceName(static_cast<DataSource>(i)))
            .value(r.roDataFrom[i]);
    json.endObject();
    json.key("accesses_by_category").beginObject();
    for (std::size_t c = 0; c < kNumAccessCategories; ++c)
        json.key(accessCategoryName(static_cast<AccessCategory>(c)))
            .value(r.accessesByCategory[c]);
    json.endObject();
    json.key("misses_by_category").beginObject();
    for (std::size_t c = 0; c < kNumAccessCategories; ++c)
        json.key(accessCategoryName(static_cast<AccessCategory>(c)))
            .value(r.missesByCategory[c]);
    json.endObject();
    json.key("latency").beginObject();
    json.key("all");
    r.latency.writeJson(json);
    json.key("first_try");
    r.latencyFirstTry.writeJson(json);
    json.key("retried");
    r.latencyRetried.writeJson(json);
    json.key("by_reason").beginObject();
    for (std::size_t i = 0; i < kNumFilterReasons; ++i) {
        json.key(filterReasonName(static_cast<FilterReason>(i)));
        r.latencyByReason[i].writeJson(json);
    }
    json.endObject();
    json.endObject();
    const CritPathSnapshot &cp = r.critpath;
    json.key("critpath").beginObject();
    json.key("segments").beginObject();
    for (std::size_t s = 0; s < kNumCritSegments; ++s) {
        json.key(critSegmentName(static_cast<CritSegment>(s)));
        cp.segments[s].writeJson(json);
    }
    json.endObject();
    // Per-reason and per-VM splits stay compact: the count is
    // the group's transactions, seg_sums its total ticks per
    // segment (mean = sum / count).
    json.key("by_reason").beginObject();
    for (std::size_t i = 0; i < kNumFilterReasons; ++i) {
        json.key(filterReasonName(static_cast<FilterReason>(i)))
            .beginObject();
        json.key("count").value(cp.byReason[0][i].count);
        json.key("seg_sums").beginObject();
        for (std::size_t s = 0; s < kNumCritSegments; ++s)
            json.key(critSegmentName(static_cast<CritSegment>(s)))
                .value(cp.byReason[s][i].sum);
        json.endObject();
        json.endObject();
    }
    json.endObject();
    json.key("by_vm").beginObject();
    for (std::uint32_t row = 0; row < cp.vmRows; ++row) {
        json.key(vmRowLabel(row, cp.vmRows)).beginObject();
        json.key("count").value(cp.vmCell(0, row).count);
        json.key("seg_sums").beginObject();
        for (std::size_t s = 0; s < kNumCritSegments; ++s)
            json.key(critSegmentName(static_cast<CritSegment>(s)))
                .value(cp.vmCell(s, row).sum);
        json.endObject();
        json.endObject();
    }
    json.endObject();
    json.key("noc_wait_cycles").beginObject();
    for (std::size_t c = 0; c < kNumMsgClasses; ++c)
        json.key(msgClassName(static_cast<MsgClass>(c)))
            .value(cp.nocWaitCycles[c]);
    json.endObject();
    json.endObject();
    const InterferenceSnapshot &in = r.interference;
    auto matrix = [&](const char *name,
                      const std::vector<std::uint64_t> &m) {
        json.key(name).beginArray();
        for (std::uint32_t row = 0; row < in.dim; ++row) {
            json.beginArray();
            for (std::uint32_t col = 0; col < in.dim; ++col)
                json.value(in.at(m, row, col));
            json.endArray();
        }
        json.endArray();
    };
    json.key("interference").beginObject();
    json.key("rows").beginArray();
    for (std::uint32_t row = 0; row < in.dim; ++row)
        json.value(vmRowLabel(row, in.dim));
    json.endArray();
    matrix("snoop_lookups", in.snoopLookups);
    matrix("tag_busy_cycles", in.tagBusyCycles);
    matrix("bytes_delivered", in.bytesDelivered);
    json.key("offdiag_snoop_share").value(in.offDiagLookupShare());
    json.endObject();
    if (!r.links.empty()) {
        json.key("links").beginArray();
        for (const LinkStat &link : r.links) {
            json.beginObject();
            json.key("from").value(link.from);
            json.key("to").value(link.to);
            json.key("byte_hops").beginObject();
            for (std::size_t c = 0; c < kNumMsgClasses; ++c)
                json.key(msgClassName(static_cast<MsgClass>(c)))
                    .value(link.byteHops[c]);
            json.endObject();
            json.key("busy_cycles").value(link.busyCycles);
            json.key("wait_cycles").value(link.waitCycles);
            json.endObject();
        }
        json.endArray();
    }
    if (r.perf.enabled) {
        json.key("perf");
        r.perf.writeJson(json);
    }
    if (r.pages.enabled) {
        const PagesSnapshot &pg = r.pages;
        json.key("pages").beginObject();
        json.key("top_k").value(pg.topK);
        json.key("tracked").value(pg.cells.size());
        json.key("total_lookups").value(pg.totalLookups);
        json.key("truncated_lookups").value(pg.truncatedLookups);
        json.key("truncated_pages").value(pg.truncatedPages);
        json.key("census").beginObject();
        for (std::size_t t = 0; t < kNumPageTypes; ++t)
            json.key(pageTypeName(static_cast<PageType>(t)))
                .value(pg.censusByType[t]);
        json.endObject();
        json.key("transitions").beginObject();
        json.key("maps").value(pg.mapEvents);
        json.key("unmaps").value(pg.unmapEvents);
        json.key("type_changes").value(pg.typeChanges);
        json.key("cow_breaks").value(pg.cowBreaks);
        json.key("remaps").value(pg.remaps);
        json.endObject();
        // Cells arrive pre-sorted (lookups desc, page asc) from
        // PageMon::snapshot(), so this array is byte-identical
        // across --jobs values.
        json.key("top").beginArray();
        for (const PageCell &cell : pg.cells) {
            json.beginObject();
            json.key("page").value(cell.pageNum);
            json.key("lookups").value(cell.lookups);
            json.key("misses").value(cell.misses);
            json.key("cross_vm").value(cell.crossVm);
            json.key("filtered").value(cell.filtered);
            json.key("broadcast").value(cell.broadcast);
            json.key("sharers").value(cell.sharerMask);
            json.key("type").value(pageTypeName(cell.lastType));
            json.key("by_reason").beginObject();
            for (std::size_t i = 0; i < kNumFilterReasons; ++i)
                json.key(filterReasonName(static_cast<FilterReason>(i)))
                    .value(cell.byReason[i]);
            json.endObject();
            json.key("by_vm").beginObject();
            for (std::uint32_t row = 0; row < pg.vmRows; ++row)
                json.key(vmRowLabel(row, pg.vmRows))
                    .value(cell.byVm[row]);
            json.endObject();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endObject();

    if (r.series.enabled()) {
        json.key("timeseries");
        r.series.writeJson(json);
    }

    json.key("memory").beginObject();
    json.key("reads").value(memoryReads);
    json.key("writebacks").value(memoryWritebacks);
    json.endObject();

    json.key("energy").beginObject();
    json.key("snoop_tag_pj").value(energy.snoopTagPj);
    json.key("network_pj").value(energy.networkPj);
    json.key("dram_pj").value(energy.dramPj);
    json.key("l2_data_pj").value(energy.l2DataPj);
    json.key("total_pj").value(energy.totalPj());
    json.endObject();

    if (traceAttached) {
        json.key("trace").beginObject();
        json.key("records_recorded").value(traceRecordsRecorded);
        json.key("records_dropped").value(traceRecordsDropped);
        json.endObject();
    }

    json.endObject();
}

std::string
RunResult::toJson() const
{
    JsonWriter json;
    writeJson(json);
    return json.str();
}

RunResult
collectResults(SimSystem &system, const std::string &appName)
{
    const SystemConfig &config = system.config();
    RunResult out;
    out.app = appName;
    out.config = config;
    out.results = system.results();
    if (const TraceSink *sink = system.trace()) {
        out.traceAttached = true;
        out.traceRecordsRecorded = sink->recorded();
        out.traceRecordsDropped = sink->dropped();
    }
    const MainMemory &memory = system.coherence().memory();
    out.memoryReads = memory.reads.value();
    out.memoryWritebacks = memory.writebacks.value();
    out.energy = computeEnergy(out.results, out.memoryReads,
                               out.memoryWritebacks);

    if (!config.tracePath.empty()) {
        const TraceSink *sink = system.trace();
        vsnoop_assert(sink != nullptr,
                      "tracePath set but no sink was attached");
        std::ofstream os(config.tracePath);
        if (!os) {
            vsnoop_fatal("cannot open trace file ", config.tracePath);
        }
        ChromeTraceMeta meta;
        meta.numCores = config.numCores();
        meta.numVms = config.numVms;
        writeChromeTrace(os, *sink,
                         out.results.series.enabled()
                             ? &out.results.series
                             : nullptr,
                         meta);
    }
    return out;
}

RunResult
collectRun(const SystemConfig &config, const AppProfile &app,
           HostProfiler *profiler, ProgressFn progress)
{
    SimSystem system(config, app);
    if (profiler != nullptr)
        system.setProfiler(profiler);
    if (progress)
        system.setProgressCallback(std::move(progress));
    system.run();
    return collectResults(system, app.name);
}

} // namespace vsnoop

"""Smoke checks of the vsnoop tools, each driven end to end.

usage: tool_smoke.py STEP TOOLS_DIR WORK_DIR

TOOLS_DIR holds the built tools; every file a step writes lands in
WORK_DIR, which the steps share (html_report renders the run record
that the trace step wrote).  STEP is one of:

  sweep_determinism  sweep output is identical at 1 and N workers, and
                     each record equals vsnoopsim's run of its point
  trace              trace and time series are well formed, and the
                     critical path and interference matrix reconcile
  html_report        the report renders every chart of a traced run
  perf               --perf output is worker-count independent, live,
                     and renders, even with a degraded histogram
  pages              --pages output is worker-count independent and
                     reconciles; --watch-page narrows the trace
  interrupt          SIGINT cuts a sweep short with exit 130 and an
                     interrupted summary after the completed records
  service_load       8 concurrent clients load a vsnoopserve on an
                     ephemeral port without a failed request, and the
                     server exits 0 on SIGINT
  live_telemetry     a monitored sweep serves a well-formed /metrics
                     with exactly the sweep's metric families, plus
                     /progress, /runs and a level-filtered /logs,
                     mid-run; monitoring leaves its output bytes
                     unchanged
  service            a vsnoopserve streams offline bytes, serves a
                     resubmission from its cache, round-trips --submit,
                     threads request ids through logs and metrics,
                     aggregates --perf and --pages, and drains on
                     SIGINT with job spans that tile submit-to-done;
                     a server restarted on that cache answers from it

Each step exits non-zero on the first failed check.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

# Any fixed worker count above 1 exercises the parallel sweep path.
JOBS = "4"
TOOLS = ""  # TOOLS_DIR, set by main()

SWEEP = ["--apps", "ferret,canneal", "--policies", "tokenb,vsnoop"]
RUN = ["--app", "ferret", "--policy", "vsnoop",
       "--accesses", "4000", "--warmup", "1000"]


def tool(name, *args, out=None):
    """Run one tool to completion; @out captures its stdout."""
    path = os.path.join(TOOLS, name)
    if out is None:
        subprocess.run([path, *args], check=True)
    else:
        with open(out, "wb") as f:
            subprocess.run([path, *args], check=True, stdout=f)


def spawn(name, *args, err):
    """Start one tool in the background, its stderr going to @err."""
    with open(err, "wb") as f:
        return subprocess.Popen([os.path.join(TOOLS, name), *args],
                                stderr=f)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def load(path):
    with open(path) as f:
        return json.load(f)


def same(a, b):
    assert read(a) == read(b), f"{a} and {b} differ"


def bound_addr(err):
    """The 127.0.0.1:PORT a tool started with port 0 printed to @err."""
    for _ in range(50):
        found = re.search(rb"127\.0\.0\.1:[0-9]+", read(err))
        if found:
            return found.group().decode()
        time.sleep(0.2)
    raise AssertionError(f"{err} never reported a bound address")


def http(addr, path, body=None, headers=None):
    """One request to a tool's HTTP endpoint (POST when @body is set).
    Returns (status, headers, body bytes); a 4xx/5xx status raises
    urllib.error.HTTPError."""
    request = urllib.request.Request(f"http://{addr}{path}", data=body,
                                     headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as reply:
        return reply.status, reply.headers, reply.read()


def fetch(addr, path, out):
    """GET @path into the file @out and return its bytes."""
    _, _, body = http(addr, path)
    with open(out, "wb") as f:
        f.write(body)
    return body


def expect_status(addr, path, status):
    """GET @path must fail with HTTP @status."""
    try:
        http(addr, path)
    except urllib.error.HTTPError as e:
        assert e.code == status, (path, e.code)
    else:
        raise AssertionError(f"{path} did not fail with {status}")


def contains(path, *needles):
    text = read(path).decode()
    for needle in needles:
        assert needle in text, f"{path} lacks {needle!r}"


def sweep_determinism():
    for jobs, out in (("1", "j1.jsonl"), (JOBS, "jN.jsonl")):
        tool("vsnoopsweep", *SWEEP, "--relocations", "base,counter",
             "--seeds", "1,2", "--accesses", "2000", "--jobs", jobs,
             "--out", out)
    same("j1.jsonl", "jN.jsonl")
    tool("vsnoopsim", "--json", "--accesses", "2000", out="sim.json")
    load("sim.json")
    # Both sweeps above run on one engine, so they also need an
    # independent reference: vsnoopsim runs each point by itself and
    # must print the sweep's record for it byte for byte.
    with open("jN.jsonl", "rb") as f:
        records = f.read().splitlines(keepends=True)
    assert len(records) == 16, len(records)
    for i, record in enumerate(records):
        point = json.loads(record)
        tool("vsnoopsim", "--app", point["app"], "--policy",
             point["policy"], "--relocation", point["relocation"],
             "--ro-policy", point["ro_policy"], "--seed",
             str(point["seed"]), "--accesses", "2000", "--json",
             out=f"sim-{i}.json")
        assert read(f"sim-{i}.json") == record, \
            f"jN.jsonl record {i} differs from vsnoopsim's"


def trace():
    tool("vsnoopsim", *RUN, "--relocation", "counter",
         "--migration-period", "20000", "--trace", "smoke.trace.json",
         "--timeseries-interval", "10000", "--json", out="smoke.run.json")
    # The trace must be well-formed Chrome trace-event JSON with a
    # non-empty event array, and the run record must carry the
    # embedded time series.
    trace = load("smoke.trace.json")
    events = trace["traceEvents"]
    assert events, "empty traceEvents"
    phases = {e["ph"] for e in events}
    assert {"M", "X", "C"} <= phases, phases
    assert "records_dropped" in trace["otherData"]
    run = load("smoke.run.json")
    assert run["timeseries"]["samples"], "no time-series samples"
    assert run["trace"]["records_recorded"] > 0
    results = run["results"]
    assert results["latency"]["all"]["count"] > 0
    assert len(results["links"]) == 64, len(results["links"])
    # Critical-path conservation: the segment sums must telescope
    # exactly to the end-to-end latency total, and the interference
    # matrix must account for every snoop lookup the coherence layer
    # counted.
    critpath = results["critpath"]
    seg_total = sum(s["sum"] for s in critpath["segments"].values())
    assert seg_total == results["latency"]["all"]["sum"], \
        (seg_total, results["latency"]["all"]["sum"])
    inter = results["interference"]
    matrix_total = sum(sum(row) for row in inter["snoop_lookups"])
    assert matrix_total == results["snoop_lookups"], \
        (matrix_total, results["snoop_lookups"])
    assert 0.0 <= inter["offdiag_snoop_share"] <= 1.0
    print(len(events), "trace events OK")


def html_report():
    tool("vsnoopreport", "--out", "smoke.report.html", "smoke.run.json")
    # The report must actually contain rendered charts, including the
    # critical-path waterfall and the inter-VM interference heatmap.
    contains("smoke.report.html", "<svg", 'class="heatmap"',
             'class="waterfall"', 'class="interheat"')


def perf():
    # --perf output must be deterministic across worker counts and
    # carry live counters for every hot-path structure.
    for jobs, out in (("1", "perf-j1.jsonl"), (JOBS, "perf-jN.jsonl")):
        tool("vsnoopsweep", *SWEEP, "--seeds", "1,2", "--accesses", "2000",
             "--perf", "--jobs", jobs, "--out", out)
    same("perf-j1.jsonl", "perf-jN.jsonl")
    tool("vsnoopsim", *RUN, "--perf", "--json", out="perf.run.json")
    run = load("perf.run.json")
    perf = run["results"]["perf"]
    eq = perf["event_queue"]
    assert eq["schedules"] > 0, eq
    assert eq["pool_high_water"] > 0, eq
    assert eq["wheel_occupancy"]["count"] > 0, eq
    mshrs = perf["tables"]["mshrs"]
    assert mshrs["probe_length"]["count"] > 0, mshrs
    assert perf["mesh"]["send_backlog"]["count"] > 0
    with open("perf-j1.jsonl") as f:
        for line in f:
            assert '"perf":{' in line
    print("perf counters live OK")
    # The report renders the internals section from the block.
    tool("vsnoopreport", "--out", "perf.report.html", "perf.run.json")
    contains("perf.report.html", "Simulator internals", "probe length")
    # A degraded probe-length histogram (the regression the section
    # exists to surface) must still render, not crash or drop the
    # chart.
    hist = run["results"]["perf"]["tables"]["mshrs"]["probe_length"]
    n = hist["count"]
    hist["buckets"] = [0] * 10 + [n]
    hist["min"] = hist["p50"] = hist["p90"] = hist["p99"] = 1023
    hist["max"] = 1023
    hist["mean"] = 1023.0
    hist["sum"] = 1023 * n
    with open("perf.bad.json", "w") as f:
        json.dump(run, f)
    tool("vsnoopreport", "--out", "perf.bad.html", "perf.bad.json")
    contains("perf.bad.html", "Simulator internals", "probe length")


def pages():
    # Page attribution must be deterministic across worker counts and
    # reconcile exactly with the snoop counter.
    for jobs, out in (("1", "pages-j1.jsonl"), (JOBS, "pages-jN.jsonl")):
        tool("vsnoopsweep", *SWEEP, "--seeds", "1,2", "--accesses", "2000",
             "--pages", "--jobs", jobs, "--out", out)
    same("pages-j1.jsonl", "pages-jN.jsonl")
    # With the flag off, no pages keys may appear anywhere.
    tool("vsnoopsweep", "--apps", "ferret", "--policies", "vsnoop",
         "--seeds", "1", "--accesses", "2000", "--jobs", "1",
         "--out", "pages-off.jsonl")
    assert b'"pages"' not in read("pages-off.jsonl"), \
        "pages keys leaked into a pages-off sweep"
    tool("vsnoopsim", *RUN, "--pages", "--json", out="pages.run.json")
    run = load("pages.run.json")
    res = run["results"]
    pages = res["pages"]
    top = pages["top"]
    assert 0 < len(top) <= pages["top_k"], len(top)
    tracked = sum(c["lookups"] for c in top)
    # The mass identity the whole feature hangs on.
    assert tracked + pages["truncated_lookups"] \
        == pages["total_lookups"] == res["snoop_lookups"]
    ib = res["interference"]["snoop_lookups"]
    grand = sum(sum(row) for row in ib)
    assert grand == pages["total_lookups"], (grand, pages)
    # Cells arrive hottest-first with coherent breakdowns.
    looks = [c["lookups"] for c in top]
    assert looks == sorted(looks, reverse=True)
    for c in top:
        assert sum(c["by_vm"].values()) == c["lookups"], c
        assert sum(c["by_reason"].values()) > 0, c
    census = pages["census"]
    assert sum(census.values()) > 0, census
    assert pages["transitions"]["maps"] > 0, pages
    print("pages attribution reconciles OK")
    # Watchpoints narrow the transaction trace to one page.
    hot = hex(top[0]["page"] << 12)
    tool("vsnoopsim", *RUN, "--watch-page", hot,
         "--trace", "hot-page.trace.json", out=os.devnull)
    page = int(hot, 16) >> 12
    trace = load("hot-page.trace.json")
    tx = [e for e in trace["traceEvents"]
          if e["ph"] == "X" and "0x" in e["name"]]
    assert tx, "watched page recorded no transactions"
    for e in tx:
        line = int(e["name"].split()[1], 16)
        assert line >> 12 == page, e["name"]
    kinds = {e["name"] for e in trace["traceEvents"] if e["ph"] == "i"}
    assert "page-map" in kinds, kinds
    print(f"watch-page filtered {len(tx)} transactions OK")
    # The report renders the address-space section.
    tool("vsnoopreport", "--out", "pages.report.html", "pages.run.json")
    contains("pages.report.html", "Address space",
             "snoop lookups by host address range", "pagetable")


def interrupt():
    # SIGINT mid-sweep: completed records flush in matrix order, a
    # summary line marks the interruption, and the exit status is
    # 128+SIGINT.
    sweep = spawn("vsnoopsweep", "--apps", "ferret", "--seeds", "1,2,3,4",
                  "--accesses", "200000", "--jobs", "1", "--out",
                  "int.jsonl", err="int.err")
    try:
        time.sleep(3)
        sweep.send_signal(signal.SIGINT)
        rc = sweep.wait()
    finally:
        sweep.kill()
    assert rc == 130, rc
    with open("int.jsonl") as f:
        lines = [json.loads(line) for line in f]
    assert lines, "no output lines"
    summary = lines[-1]["summary"]
    assert summary["interrupted"] is True
    assert summary["signal"] == 2
    assert summary["runs_completed"] == len(lines) - 1
    assert summary["runs_total"] == 4
    assert summary["runs_completed"] < 4, "sweep was not cut short"
    for record in lines[:-1]:
        assert record["results"]["accesses"] > 0
        assert "meta" in record
    print("interrupted after", summary["runs_completed"], "runs OK")


def service_load():
    # A brief client swarm against the server: 8 concurrent clients,
    # every matrix submitted twice, no failed requests allowed.  A
    # fresh cache makes every run a miss, as on a first start.
    shutil.rmtree("load-cache", ignore_errors=True)
    serve = spawn("vsnoopserve", "--addr", "127.0.0.1:0", "--cache-dir",
                  "load-cache", "--jobs", "2", err="load-serve.err")
    try:
        addr = bound_addr("load-serve.err")
        tool("vsnoopload", "--addr", addr, "--clients", "8",
             "--submissions", "2", "--accesses", "500")
        serve.send_signal(signal.SIGINT)
        rc = serve.wait()
    finally:
        serve.kill()
    assert rc == 0, rc
    print("service load OK")


# A --perf sweep exposes exactly these metric families: 21
# vsnoop_perf_*, 9 vsnoop_run_* and 10 vsnoop_sweep_*.  A family
# gained or lost, or a vsnoop_job* / vsnoop_store* family leaking in,
# changes the sweep's /metrics contract.
SWEEP_FAMILIES = {
    "vsnoop_perf_event_queue_deschedules_total": "counter",
    "vsnoop_perf_event_queue_max_bucket_depth": "gauge",
    "vsnoop_perf_event_queue_max_overflow_entries": "gauge",
    "vsnoop_perf_event_queue_max_wheel_entries": "gauge",
    "vsnoop_perf_event_queue_overflow_inserts_total": "counter",
    "vsnoop_perf_event_queue_overflow_occupancy": "histogram",
    "vsnoop_perf_event_queue_pool_high_water": "gauge",
    "vsnoop_perf_event_queue_pool_refills_total": "counter",
    "vsnoop_perf_event_queue_pool_reuses_total": "counter",
    "vsnoop_perf_event_queue_schedules_total": "counter",
    "vsnoop_perf_event_queue_wheel_inserts_total": "counter",
    "vsnoop_perf_event_queue_wheel_occupancy": "histogram",
    "vsnoop_perf_mesh_leg_length": "histogram",
    "vsnoop_perf_mesh_send_backlog": "histogram",
    "vsnoop_perf_runs_total": "counter",
    "vsnoop_perf_table_growth_rehashes_total": "counter",
    "vsnoop_perf_table_load_factor": "gauge",
    "vsnoop_perf_table_max_entries": "gauge",
    "vsnoop_perf_table_occupancy": "histogram",
    "vsnoop_perf_table_probe_length": "histogram",
    "vsnoop_perf_table_tombstone_cleanups_total": "counter",
    "vsnoop_run_accesses_total": "counter",
    "vsnoop_run_events_total": "counter",
    "vsnoop_run_filter_rate": "gauge",
    "vsnoop_run_progress_ratio": "gauge",
    "vsnoop_run_sim_tick": "gauge",
    "vsnoop_run_snoop_lookups_total": "counter",
    "vsnoop_run_state": "gauge",
    "vsnoop_run_traffic_byte_hops_total": "counter",
    "vsnoop_run_transactions_total": "counter",
    "vsnoop_sweep_elapsed_seconds": "gauge",
    "vsnoop_sweep_eta_seconds": "gauge",
    "vsnoop_sweep_events_total": "counter",
    "vsnoop_sweep_interrupted": "gauge",
    "vsnoop_sweep_runs_completed": "gauge",
    "vsnoop_sweep_runs_per_second": "gauge",
    "vsnoop_sweep_runs_running": "gauge",
    "vsnoop_sweep_runs_total": "gauge",
    "vsnoop_sweep_sim_ticks_total": "counter",
    "vsnoop_sweep_stalled_runs": "gauge",
}

LIVE = ["--apps", "ferret,canneal", "--policies", "tokenb,vsnoop",
        "--relocations", "base,counter", "--seeds", "1,2",
        "--accesses", "20000", "--perf"]


def live_telemetry():
    # Launch a monitored sweep on an ephemeral port, scrape every
    # endpoint mid-run (its 16 runs of 20000 accesses take seconds),
    # and render a dashboard frame.
    sweep = spawn("vsnoopsweep", *LIVE, "--jobs", JOBS, "--stats-addr",
                  "127.0.0.1:0", "--heartbeat", "1", "--out", "live.jsonl",
                  err="live.err")
    try:
        addr = bound_addr("live.err")
        time.sleep(1)
        fetch(addr, "/metrics", "live.metrics")
        fetch(addr, "/progress", "live.progress")
        fetch(addr, "/runs", "live.runs")
        # The sweep's /logs honors the level filter, as the server's
        # does.
        errors = fetch(addr, "/logs?level=error", "live.errors.jsonl")
        assert all(json.loads(line)["level"] == "error"
                   for line in errors.splitlines() if line.strip()), errors
        expect_status(addr, "/logs?level=banana", 400)
        tool("vsnooptop", "--addr", addr, "--once")
        rc = sweep.wait()
    finally:
        sweep.kill()
    assert rc == 0, rc
    # The exposition output must follow the text format: HELP/TYPE
    # headers per family, parseable sample lines.
    lines = read("live.metrics").decode().splitlines()
    assert lines, "empty exposition"
    seen_types = {}
    families = {}
    for line in lines:
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), line
            assert name not in seen_types, f"split family {name}"
            seen_types[name] = kind
            families[name] = kind
            if kind == "histogram":
                for suffix in ("_bucket", "_sum", "_count"):
                    seen_types[name + suffix] = kind
            continue
        m = re.match(
            r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
            r' (NaN|[+-]Inf|-?[0-9].*)$', line)
        assert m, f"bad sample line: {line}"
        assert m.group(1) in seen_types, f"untyped {m.group(1)}"
    assert seen_types["vsnoop_sweep_runs_total"] == "gauge"
    assert seen_types["vsnoop_run_accesses_total"] == "counter"
    assert seen_types["vsnoop_run_progress_ratio"] == "gauge"
    assert seen_types["vsnoop_run_filter_rate"] == "gauge"
    assert seen_types["vsnoop_sweep_events_total"] == "counter"
    assert seen_types["vsnoop_sweep_sim_ticks_total"] == "counter"
    # --perf on the sweep registers the internals aggregates.
    assert seen_types["vsnoop_perf_runs_total"] == "counter"
    assert seen_types["vsnoop_perf_table_probe_length"] == "histogram"
    assert families == SWEEP_FAMILIES, (
        sorted(families.items() - SWEEP_FAMILIES.items()),
        sorted(SWEEP_FAMILIES.items() - families.items()))
    progress = load("live.progress")
    assert progress["runs_total"] == 16, progress
    runs = load("live.runs")
    assert len(runs["runs"]) == 16
    print(len(lines), "exposition lines OK")
    # Monitoring must not change a single output byte, at any worker
    # count (--perf included: its counters are deterministic functions
    # of the simulation).
    tool("vsnoopsweep", *LIVE, "--jobs", "1", "--out", "plain.jsonl")
    same("live.jsonl", "plain.jsonl")


# The served matrix pins warmup explicitly: the server takes the
# matrix as-is, while the offline CLI defaults warmup to accesses/4
# client-side.
SERVED = {"apps": ["ferret", "canneal"], "policies": ["tokenb", "vsnoop"],
          "seeds": [1, 2], "label": "ci-smoke",
          "config": {"accesses_per_vcpu": 2000,
                     "warmup_accesses_per_vcpu": 500}}
OFFLINE = ["--apps", "ferret,canneal", "--policies", "tokenb,vsnoop",
           "--seeds", "1,2", "--accesses", "2000", "--warmup", "500"]


def submit(addr, matrix, headers=None):
    """POST @matrix to /jobs; returns the job id and reply headers."""
    _, reply_headers, body = http(addr, "/jobs", json.dumps(matrix).encode(),
                                  headers)
    return json.loads(body)["job"], reply_headers


def await_done(addr, job, polls, out):
    """Poll job @job until it is terminal (at most @polls polls 0.2 s
    apart, the last status kept in @out); it must end done."""
    for _ in range(polls):
        status = json.loads(fetch(addr, f"/jobs/{job}", out))
        if status["state"] in ("done", "failed", "cancelled"):
            break
        time.sleep(0.2)
    assert status["state"] == "done", status
    return status


def jq_truthy(value):
    """jq's truth: every value but null and false (0 and "" too)."""
    return value is not None and value is not False


def has_line(text, pattern):
    return re.search(pattern, text, re.M) is not None


def nonzero(text, name):
    """Some sample of @name has a value other than 0."""
    return any(line.startswith(name + " ") and not line.endswith(" 0")
               for line in text.splitlines())


def served_steps(addr):
    # Served results are byte-identical to an offline sweep.
    job = submit(addr, SERVED)[0]
    await_done(addr, job, 300, "svc-status.json")
    fetch(addr, f"/jobs/{job}/results", "svc-served.jsonl")
    tool("vsnoopsweep", *OFFLINE, "--jobs", JOBS, "--out", "svc-offline.jsonl")
    same("svc-served.jsonl", "svc-offline.jsonl")
    tool("vsnooptop", "--addr", addr, "--once")

    # A resubmission is a full cache hit: no new run starts.
    job2 = submit(addr, SERVED)[0]
    s = await_done(addr, job2, 100, "svc-status2.json")
    assert s["runs_total"] == 8, s
    assert s["runs_from_cache"] == 8, s
    assert s["runs_executed"] == 0, s
    fetch(addr, f"/jobs/{job2}/results", "svc-served2.jsonl")
    same("svc-served2.jsonl", "svc-offline.jsonl")
    # The store's hit counter moved.  (Metrics are staged by a 250 ms
    # publisher loop.)
    time.sleep(1)
    metrics = fetch(addr, "/metrics", "svc-metrics.txt").decode()
    assert has_line(metrics, r"^vsnoop_store_hits_total 8$"), metrics

    # vsnoopsweep --submit round-trips the same bytes.
    tool("vsnoopsweep", "--submit", addr, *OFFLINE,
         "--out", "svc-submit.jsonl")
    same("svc-submit.jsonl", "svc-offline.jsonl")

    # A correlated submission: the client-chosen request id must come
    # back in the response headers, the job status, and the server's
    # access log.
    job3, headers = submit(addr, SERVED, {"X-Request-Id": "ci-rid-1"})
    rid = headers.get("X-Request-Id") or ""
    assert rid.lower().startswith("ci-rid-1"), dict(headers)
    s = await_done(addr, job3, 100, "svc-status3.json")
    assert s["request_id"] == "ci-rid-1", s
    contains("svc-serve.err", '"msg":"http_access"',
             '"request_id":"ci-rid-1"')
    # GET /logs replays the ring as JSONL (every line parses) and
    # honors the level filter.
    logs = fetch(addr, "/logs", "svc-logs.jsonl")
    assert logs, "empty /logs"
    records = [json.loads(line) for line in logs.splitlines() if line.strip()]
    assert records and all(jq_truthy(r.get(k)) for r in records
                           for k in ("seq", "ts_ms", "level")), records
    contains("svc-logs.jsonl", '"request_id":"ci-rid-1"')
    errors = fetch(addr, "/logs?level=error", "svc-errors.jsonl")
    assert b'"level":"info"' not in errors, errors
    expect_status(addr, "/logs?level=banana", 400)
    # /metrics carries well-formed histogram families whose _count
    # totals reconcile with the job counters, plus build info and
    # uptime.
    time.sleep(1)
    metrics = fetch(addr, "/metrics", "svc-metrics2.txt").decode()
    assert ('vsnoop_http_request_duration_us_bucket'
            '{route="POST /jobs",le="+Inf"}') in metrics
    assert has_line(metrics, r"^# TYPE vsnoop_job_queue_wait_ms histogram$")
    assert has_line(metrics, r"^vsnoop_build_info\{")
    assert has_line(metrics, r"^vsnoop_uptime_seconds [0-9]")
    values = {}
    for line in metrics.splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    assert values["vsnoop_job_queue_wait_ms_count"] == \
        values["vsnoop_jobs_submitted_total"], values
    assert values["vsnoop_job_run_execute_ms_count"] == \
        values["vsnoop_job_runs_executed_total"], values
    assert values["vsnoop_store_expired_total"] == 0
    print("histogram counts reconcile OK")

    # A matrix submitted with "perf": true feeds the server's
    # vsnoop_perf_* aggregates as its runs finish, and the perf block
    # rides the streamed results.
    job4 = submit(addr, {"apps": ["ferret"], "seeds": [1, 2],
                         "label": "ci-perf",
                         "config": {"accesses_per_vcpu": 2000,
                                    "warmup_accesses_per_vcpu": 500,
                                    "perf": True}})[0]
    await_done(addr, job4, 100, "svc-status4.json")
    fetch(addr, f"/jobs/{job4}/results", "svc-perf-served.jsonl")
    contains("svc-perf-served.jsonl", '"perf":{')
    time.sleep(1)
    metrics = fetch(addr, "/metrics", "svc-metrics3.txt").decode()
    assert has_line(metrics, r"^vsnoop_perf_runs_total 2$")
    assert nonzero(metrics, "vsnoop_perf_event_queue_schedules_total")

    # A matrix submitted with "pages": true feeds the server's
    # vsnoop_pages_* aggregates, and each streamed pages block
    # reconciles with its run's snoop counter.
    job5 = submit(addr, {"apps": ["ferret"], "seeds": [1, 2],
                         "label": "ci-pages",
                         "config": {"accesses_per_vcpu": 2000,
                                    "warmup_accesses_per_vcpu": 500,
                                    "pages": True, "pages_top": 16}})[0]
    await_done(addr, job5, 100, "svc-status5.json")
    fetch(addr, f"/jobs/{job5}/results", "svc-pages-served.jsonl")
    with open("svc-pages-served.jsonl") as f:
        runs = [json.loads(line) for line in f]
    assert len(runs) == 2, len(runs)
    for run in runs:
        assert run["config"]["pages"] is True, run["config"]
        pages = run["results"]["pages"]
        tracked = sum(c["lookups"] for c in pages["top"])
        assert tracked + pages["truncated_lookups"] \
            == pages["total_lookups"] \
            == run["results"]["snoop_lookups"]
    print("served pages blocks reconcile OK")
    time.sleep(1)
    metrics = fetch(addr, "/metrics", "svc-metrics4.txt").decode()
    assert has_line(metrics, r"^vsnoop_pages_runs_total 2$")
    assert nonzero(metrics, "vsnoop_pages_lookups_total")
    assert nonzero(metrics, "vsnoop_pages_hottest_lookups")


def drain(server):
    """SIGINT @server; it must exit 0 within 10 s."""
    server.send_signal(signal.SIGINT)
    try:
        rc = server.wait(timeout=10)
    except subprocess.TimeoutExpired:
        raise AssertionError("server did not drain on SIGINT")
    assert rc == 0, rc


def service():
    # The serving path end to end: a vsnoopserve on an ephemeral port
    # with a fresh cache, driven through byte identity, a cache hit,
    # --submit, request ids, --perf and --pages, then drained.
    shutil.rmtree("svc-cache", ignore_errors=True)
    serve = spawn("vsnoopserve", "--addr", "127.0.0.1:0", "--cache-dir",
                  "svc-cache", "--jobs", JOBS, "--store-max-age", "7d",
                  "--trace-jobs", "svc-jobs.trace.json",
                  err="svc-serve.err")
    try:
        served_steps(bound_addr("svc-serve.err"))
        drain(serve)
    finally:
        serve.kill()
    contains("svc-serve.err", "jobs submitted")
    # The job trace written at shutdown is Chrome-trace JSON whose
    # per-job spans tile submit-to-done exactly: queue-wait ends where
    # execute begins, for every job.
    events = load("svc-jobs.trace.json")["traceEvents"]
    assert events, "empty traceEvents"
    jobs = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        jobs.setdefault(e["args"]["job"], {})[e["name"]] = e
    assert jobs, "no job spans"
    for job, spans in jobs.items():
        wait, execute = spans["queue-wait"], spans["execute"]
        assert wait["ts"] + wait["dur"] == execute["ts"], \
            (job, wait, execute)
        total = execute["ts"] + execute["dur"] - wait["ts"]
        assert total == wait["dur"] + execute["dur"]
    print(len(jobs), "jobs' spans tile submit-to-done OK")

    # A restarted server answers from the cache the first one left,
    # and that cache directory holds nothing but objects/.
    serve = spawn("vsnoopserve", "--addr", "127.0.0.1:0", "--cache-dir",
                  "svc-cache", "--jobs", JOBS, err="svc-serve2.err")
    try:
        addr = bound_addr("svc-serve2.err")
        job = submit(addr, SERVED)[0]
        s = await_done(addr, job, 100, "svc-status-restart.json")
        assert s["runs_from_cache"] == 8, s
        assert s["runs_executed"] == 0, s
        fetch(addr, f"/jobs/{job}/results", "svc-served-restart.jsonl")
        same("svc-served-restart.jsonl", "svc-offline.jsonl")
        time.sleep(1)
        metrics = fetch(addr, "/metrics", "svc-metrics-restart.txt").decode()
        assert has_line(metrics, r"^vsnoop_store_hits_total 8$"), metrics
        drain(serve)
    finally:
        serve.kill()
    assert os.listdir("svc-cache") == ["objects"], os.listdir("svc-cache")
    print("restarted server answered from its cache OK")


STEPS = {f.__name__: f for f in (sweep_determinism, trace, html_report,
                                 perf, pages, interrupt, service_load,
                                 live_telemetry, service)}


def main():
    global TOOLS
    step, tools, work = sys.argv[1:]
    TOOLS = os.path.abspath(tools)
    os.makedirs(work, exist_ok=True)
    os.chdir(work)
    STEPS[step]()


if __name__ == "__main__":
    main()

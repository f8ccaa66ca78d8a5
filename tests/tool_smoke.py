"""Smoke checks of the vsnoop tools, each driven end to end.

usage: tool_smoke.py STEP TOOLS_DIR WORK_DIR

TOOLS_DIR holds the built tools; every file a step writes lands in
WORK_DIR, which the steps share (html_report renders the run record
that the trace step wrote).  STEP is one of:

  sweep_determinism  sweep output is identical at 1 and N workers
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
        addr = None
        for _ in range(50):
            found = re.search(rb"127\.0\.0\.1:[0-9]+",
                              read("load-serve.err"))
            if found:
                addr = found.group().decode()
                break
            time.sleep(0.2)
        assert addr, "vsnoopserve never reported its address"
        tool("vsnoopload", "--addr", addr, "--clients", "8",
             "--submissions", "2", "--accesses", "500")
        serve.send_signal(signal.SIGINT)
        rc = serve.wait()
    finally:
        serve.kill()
    assert rc == 0, rc
    print("service load OK")


STEPS = {f.__name__: f for f in (sweep_determinism, trace, html_report,
                                 perf, pages, interrupt, service_load)}


def main():
    global TOOLS
    step, tools, work = sys.argv[1:]
    TOOLS = os.path.abspath(tools)
    os.makedirs(work, exist_ok=True)
    os.chdir(work)
    STEPS[step]()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The layered benchmark's single command (see README.md).

    python3 perfbench/run.py --workload sweep-broadcast --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Builds perfbench_driver in Release
(under $CARGO_TARGET_DIR, default .bench_build), measures one workload
in a fresh process, checks every delivered run record against its
reference digest, and prints as the last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep-broadcast", "serve-cold")
# The ledger's layers-add-up check: the calibrated per-op costs times
# the runs' operation counts must land within this share of the wall.
LEDGER_BOUND = 0.25
DRIVER_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_root, build_type):
    """Configure (once) and build the driver; returns its path."""
    build_dir = os.path.join(build_root, "perfbench-" + build_type)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=" + build_type]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=840)
    return os.path.join(build_dir, "perfbench_driver")


def committed_digests(workload, seed):
    """The committed reference digests, when they cover @seed."""
    path = os.path.join(BENCH_DIR, "expected", workload + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        doc = json.load(f)
    return doc["records"] if doc["seed"] == seed else {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt", type=int, default=-1,
                        help="flip one byte of the N-th delivered record "
                             "(checks that the digest check counts it)")
    parser.add_argument("--build-type", default="Release",
                        help="anything but Release is refused by the driver")
    parser.add_argument("--write-expected", type=int, metavar="ITEMS",
                        help="regenerate expected/<workload>.json for "
                             "--seed over the first ITEMS pool items")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        driver = build(build_root, args.build_type)
    except (subprocess.SubprocessError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    if args.write_expected is not None:
        out = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--expect", str(args.write_expected)],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        offline = json.loads(out.strip().splitlines()[-1])["offline"]
        path = os.path.join(BENCH_DIR, "expected", args.workload + ".json")
        with open(path, "w") as f:
            json.dump({"seed": args.seed, "records": offline}, f,
                      indent=0, sort_keys=True)
            f.write("\n")
        log("wrote %d digests to %s" % (len(offline), path))
        return 0

    work = os.path.join(build_root, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        committed = committed_digests(args.workload, args.seed)
        known = os.path.join(work, "known-ids")
        with open(known, "w") as f:
            f.write("\n".join(sorted(committed)) + "\n")
        cmd = [driver, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work,
               "--known", known, "--corrupt", str(args.corrupt)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
        if proc.returncode != 0:
            log("driver exited %d" % proc.returncode)
            return proc.returncode or 2
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        # Traced runs leave span files; keep them beside the build.
        spans = os.path.join(build_root, "spans")
        for name in os.listdir(work):
            if name.startswith(("spans-", "jobs-")):
                os.makedirs(spans, exist_ok=True)
                shutil.move(os.path.join(work, name), os.path.join(
                    spans, "%d-%s" % (args.seed, name)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    traced = bool(args.trace)
    refs = stats.references(committed, report["offline"])
    failed = stats.failed_ops(report["observed"], refs, traced,
                              report["failed_ops"])
    attempted = report["attempted"]
    if attempted < 1:
        log("no operation was attempted")
        return 2
    error_rate = len(failed) / attempted

    if traced:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = stats.per_layer(report, names)
        residual = values["system.ledger_residual"]
        negative = stats.negative_costs(report["ledger"]["terms"])
        if negative:
            verdict = "INVALID: negative " + ", ".join(negative)
        else:
            verdict = "ok" if residual <= LEDGER_BOUND else "EXCEEDED"
        log("ledger residual %.4f (bound %.2f: %s)" % (
            residual, LEDGER_BOUND, verdict))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "runs_per_s": report["records"] / report["window_s"],
            "job_ms_p50": stats.quantile(report["job_ms"], 0.5),
            "job_ms_p90": stats.quantile(report["job_ms"], 0.9),
            "setup_s": stats.median(report["setup_s"]),
            "peak_rss_mb": report["values"]["peak_rss_mb"],
        }
    prov = report["provenance"]
    print("perfbench: %s seed %d: git %s%s, %s, %s, nproc %d" % (
        args.workload, args.seed, prov["git"],
        " (dirty)" if prov["dirty"] else "", prov["compiler"],
        prov["build_type"], prov["nproc"]))
    summary = dict(values)
    summary["error_rate"] = error_rate
    for name in sorted(summary):
        print("perfbench:   %-34s %.6g %s" % (
            name, summary[name], units.get(name, "fraction")))
    if not traced:
        print("perfbench:   job latencies sampled: %d" % len(report["job_ms"]))
    for note in report["notes"][:10]:
        print("perfbench:   failure: " + note)
    if failed:
        print("perfbench:   failed ops: %s" % sorted(failed)[:20])
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

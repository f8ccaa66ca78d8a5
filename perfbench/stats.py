"""Reductions of a perfbench_driver report (see README.md).

Pure functions over plain data, so they can be tested without a build:
exact percentiles from raw samples, digest comparison of delivered run
records against their references, and the per-layer ledger.
"""

import math


def quantile(values, q):
    """Exact q-quantile (0 <= q <= 1) of raw samples.

    Linear interpolation between the two order statistics around
    position q * (n - 1) -- the same rule as numpy's default -- so a
    10% move of the underlying latencies moves the result by 10%,
    unlike a log2-bucket edge.  Returns 0.0 for no samples.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def references(committed, offline):
    """id -> (record digest, results digest): committed digests win."""
    refs = {rid: tuple(pair) for rid, pair in offline.items()}
    refs.update({rid: tuple(pair) for rid, pair in committed.items()})
    return refs


def failed_ops(observed, refs, traced, pre_failed=()):
    """Operations with a failure: pre-failed ones (HTTP error, state,
    line count) plus every op that delivered a record whose digest
    differs from its reference or has none.  A traced run compares
    only the model results (perf adds keys to the record)."""
    failed = set(pre_failed)
    which = 1 if traced else 0
    for op, rid, record, results in observed:
        got = results if traced else record
        ref = refs.get(rid)
        if ref is None or ref[which] != got:
            failed.add(op)
    return failed


def layer_costs(terms):
    """metric -> count-weighted mean ns per op over ledger terms."""
    total, count = {}, {}
    for metric, n, ns in terms:
        total[metric] = total.get(metric, 0.0) + n * ns
        count[metric] = count.get(metric, 0.0) + n
    return {m: (total[m] / count[m] if count[m] else 0.0) for m in total}


def negative_costs(terms):
    """Metrics with a negative per-op cost in any ledger term.

    coherence.miss_ns is a remainder (a replay's wall minus the other
    layers' shares), so it goes negative when those are over-costed;
    a ledger with such a term is not valid, whatever its residual."""
    return sorted({metric for metric, _, ns in terms if ns < 0})


def ledger_residual(wall_ns, terms):
    """|wall - sum(count x per-op cost)| / wall: how far the layers'
    calibrated costs are from adding up to the measured run time."""
    if wall_ns <= 0:
        return float("inf")
    predicted = sum(n * ns for _, n, ns in terms)
    return abs(wall_ns - predicted) / wall_ns


def per_layer(report, names):
    """Every named per-layer metric from a traced report.

    Resolution order: ledger-derived (residual, calibrated costs),
    then raw samples (an exact p50/p90 for a name with that suffix,
    else the median), then measured scalars.  A layer the workload
    does not exercise (no HTTP in an offline sweep) reads 0.
    """
    ledger = report["ledger"]
    costs = layer_costs(ledger["terms"])
    samples = report["samples"]
    values = report["values"]
    out = {}
    for name in names:
        base, _, suffix = name.rpartition("_")
        if name == "system.ledger_residual":
            out[name] = ledger_residual(ledger["wall_ns"], ledger["terms"])
        elif name in costs:
            out[name] = costs[name]
        elif suffix in ("p50", "p90") and base in samples:
            out[name] = quantile(samples[base], int(suffix[1:]) / 100)
        elif name in samples:
            out[name] = median(samples[name])
        else:
            out[name] = float(values.get(name, 0.0))
    return out

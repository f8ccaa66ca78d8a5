"""Check the shape of the Figure 9 removal-period table.

usage: check_fig09.py BENCH

Runs BENCH (bench_fig09_removal_cdf; set VSNOOP_BENCH_SCALE to run it
at reduced scale) and checks the table it prints:
- blackscholes records no removals and prints '-' for every quantile
  (its working set never drains, Section V-C);
- cholesky, ocean, radix, dedup and ferret each record at least one;
- every row's quantiles are non-decreasing;
- no 'inf' appears anywhere.
Other apps may record none at reduced scale, so nothing is asserted
about them.
"""

import subprocess
import sys

MUST_REMOVE = ("cholesky", "ocean", "radix", "dedup", "ferret")
QUANTILES = 5


def table_rows(text):
    """The rows under the table's dashed rule, split into cells."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("---")) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def check(text):
    """Return the list of violated expectations (empty when clean)."""
    problems = []
    if "inf" in text:
        problems.append("output mentions 'inf'")
    rows = {row[0]: row for row in table_rows(text)}
    for app, row in rows.items():
        if len(row) != 2 + QUANTILES:
            problems.append(f"{app}: expected {2 + QUANTILES} cells: {row}")
            continue
        removals, cells = int(row[1]), row[2:]
        if removals == 0:
            if cells != ["-"] * QUANTILES:
                problems.append(f"{app}: no removals but quantiles {cells}")
            continue
        try:
            values = [float(c) for c in cells]
        except ValueError:
            problems.append(f"{app}: {removals} removals but quantiles "
                            f"{cells}")
            continue
        if values != sorted(values):
            problems.append(f"{app}: quantiles decrease: {cells}")
    black = rows.get("blackscholes")
    if black is None or black[1] != "0":
        problems.append(f"blackscholes must record 0 removals: {black}")
    for app in MUST_REMOVE:
        if app not in rows or int(rows[app][1]) < 1:
            problems.append(f"{app} must record a removal: {rows.get(app)}")
    return problems


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    text = subprocess.run([sys.argv[1]], check=True, capture_output=True,
                          text=True).stdout
    problems = check(text)
    for problem in problems:
        print("fig09:", problem)
    if problems:
        print(text)
        sys.exit(1)
    print(text)


if __name__ == "__main__":
    main()

"""Check that the model-output gate trips on a planted regression.

usage: plant_regression.py VSNOOPREPORT BASELINE RECORDS KIND OUT

Writes RECORDS (bench_baseline JSON lines) to OUT with one regression
planted in the first record, then runs
`VSNOOPREPORT --diff BASELINE OUT --threshold 0.05`, the gate's own
command.  Succeeds only when that diff reports a regression (exit 1);
a clean pass or an error (exit 2) fails the check.

KIND is `runtime` (the runtime doubled), `offdiag` (the off-diagonal
interference share raised by 0.2, every aggregate metric unchanged) or
`missing` (the runtime key removed, so a dropped metric must not read
as an improvement).
"""

import json
import subprocess
import sys

PLANTS = {
    "runtime": lambda r: r["results"].update(
        runtime=r["results"]["runtime"] * 2),
    "offdiag": lambda r: r["results"]["interference"].update(
        offdiag_snoop_share=r["results"]["interference"]
        ["offdiag_snoop_share"] + 0.2),
    "missing": lambda r: r["results"].pop("runtime"),
}


def main():
    report, baseline, records, kind, out = sys.argv[1:]
    with open(records) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    PLANTS[kind](runs[0])
    with open(out, "w") as f:
        for run in runs:
            f.write(json.dumps(run) + "\n")
    code = subprocess.run([report, "--diff", baseline, out,
                           "--threshold", "0.05"]).returncode
    if code != 1:
        print(f"plant_regression: planted {kind} regression gave exit "
              f"{code}, expected 1", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

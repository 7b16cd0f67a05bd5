"""Compare two result sets of the benchmark, or summarize one.

    python3 perfbench/compare.py A.jsonl [B.jsonl]

Each file holds report lines written by ``run.py --record FILE`` (one
JSON object per run). For every workload and every end-to-end metric it
reports (those of ``BENCHMARK.json`` and the workload's own
``workloads.FIGURES``) it prints each set's median and quartiles over its
runs (``statistics.quantiles(n=4)``), the spread (quartile distance
over the median) and, given two sets, whether B's median is within the
metric's bound of A's. It also prints each set's worst ``error_rate``.
Exits 1 when two sets disagree on any metric.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from workloads import FIGURES

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[rec["workload"]].append(rec)
    return runs


def summary(values):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(p) for p in argv]
    disagree = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        counts = " / ".join(str(len(s.get(wl, []))) for s in sets)
        errs = " / ".join(
            "%.4g" % max((r["error_rate"] for r in s.get(wl, [])), default=0)
            for s in sets)
        print(f"{wl}  runs {counts}  worst error_rate {errs}")
        for m in spec["end_to_end"] + FIGURES:
            name, bound = m["name"], m["bound"]
            if not any(name in r["end_to_end"]
                       for s in sets for r in s.get(wl, [])):
                continue
            cells, meds = [], []
            for s in sets:
                vals = [r["end_to_end"][name]["value"] for r in s.get(wl, [])
                        if name in r["end_to_end"]]
                if not vals:
                    cells.append("%-36s" % "-")
                    continue
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                cells.append("%-36s" % ("%.4g [%.4g, %.4g] spread %.3f"
                                        % (med, q1, q3, spread)))
            verdict = ""
            if len(meds) == 2:
                change = (meds[1] - meds[0]) / meds[0]
                ok = abs(change) <= bound
                disagree += not ok
                verdict = "%+.3f %s" % (change, "agree" if ok else "DIFFER")
            print("  %-16s %-6s bound %.2f  %s %s" % (
                name, m["unit"], bound, " | ".join(cells), verdict))
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Append one change's benchmark pairs to the committed trajectory.

Usage::

    python3 tools/bench_record.py PARENT CHANGE --workload W --seed S --pairs N --pr PR \
        [--commit COMMIT]

PARENT and CHANGE are the roots of two checkouts, the parent best a
``git archive`` copy.  The tool byte-compiles both trees
(``python3 -m compileall -q src perfbench``: the benchmark's CLI children
run with ``PYTHONDONTWRITEBYTECODE=1``, so an uncompiled tree pays for
compiling on every call), then runs ``perfbench/run.py --trace 0`` of each
tree N times, for the ``run_seconds`` of ``BENCHMARK.json`` each,
alternating which tree runs first.  Each run's last output line goes to
``.perfbench/bench_pairs.jsonl`` as ``{"pair", "tree", "result"}``, one
JSON object per line.

It then appends one record per end-to-end metric of ``BENCHMARK.json``
to ``BENCH_trajectory.json``: the PR, commit, workload, metric, seed and
pair count, the median and quartiles of each tree, the number of pairs the
change wins (better in the metric's direction), and whether every run was
correct with no failed operation.  ``--commit`` is the change's commit;
a change that adds its own record leaves it out (null), as the commit
that adds the record is the change.  Records of other sources (figures
imported from CHANGES.md, the medians of acceptance runs) carry what their
source gives and null elsewhere.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_trajectory.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LOG = ROOT / ".perfbench" / "bench_pairs.jsonl"
TREES = ("parent", "change")


def run_pairs(parent: Path, change: Path, workload: str, seed: int, pairs: int) -> list[dict]:
    trees = {"parent": parent, "change": change}
    LOG.parent.mkdir(parents=True, exist_ok=True)
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=tree, check=True)
    rows = []
    with open(LOG, "w") as fh:
        for pair in range(pairs):
            for name in TREES if pair % 2 == 0 else TREES[::-1]:
                out = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                     str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
                    cwd=trees[name], capture_output=True, text=True)
                row = {"pair": pair, "tree": name, "result": json.loads(out.stdout.splitlines()[-1])}
                fh.write(json.dumps(row) + "\n")
                fh.flush()
                rows.append(row)
                print(pair, name, row["result"]["metrics"]["work_per_s"]["value"], flush=True)
    return rows


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def records(rows: list[dict], workload: str, seed: int, pr: int, commit: str) -> list[dict]:
    pairs = {}
    for row in rows:
        pairs.setdefault(row["pair"], {})[row["tree"]] = row["result"]
    ok = all(row["result"]["correct"] and row["result"]["failed"] == 0 for row in rows)
    out = []
    for metric in BENCHMARK["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {t: [p[t]["metrics"][name]["value"] for p in pairs.values()] for t in TREES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out.append({"pr": pr, "commit": commit, "source": "pairs", "workload": workload,
                    "metric": name, "unit": metric["unit"], "seed": seed, "pairs": len(pairs),
                    "parent": summary(values["parent"]), "change": summary(values["change"]),
                    "wins": wins, "all_correct": ok})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--commit")
    args = ap.parse_args(argv)
    rows = run_pairs(args.parent, args.change, args.workload, args.seed, args.pairs)
    new = records(rows, args.workload, args.seed, args.pr, args.commit)
    doc = json.loads(TRAJECTORY.read_text())
    doc["records"].extend(new)
    TRAJECTORY.write_text(json.dumps(doc, indent=1) + "\n")
    for r in new:
        print(f"{r['workload']} {r['metric']}: {r['parent']['median']:.4g} -> "
              f"{r['change']['median']:.4g}, change better in {r['wins']}/{r['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Perf-ledger entries (``benchmarks/BENCH_<n>.json``) from perfbench pairs.

A pair is one workload seed run in two checkouts, the parent and the
change, by ``perfbench/run.py``.  Pairs alternate which side runs first
(even seeds the parent, odd seeds the change): on a shared machine the
second of two back-to-back runs reads slower.  Two steps::

    # run pairs, appending one tagged result line per run
    python3 benchmarks/ledger.py run --parent <parent checkout> \\
        --change . --workload fabric-full --seeds 60-69 --seconds 16 \\
        --trace 0 --out pairs.jsonl
    # fold every line of the file into one ledger entry
    python3 benchmarks/ledger.py build pairs.jsonl --parent-rev <rev> \\
        --title "<what the change does>" --out benchmarks/BENCH_<n>.json

A tagged line is ``{"side", "workload", "seed", "seconds", "trace",
"result"}``, ``result`` being the last stdout line of ``run.py``.  Per
workload, the entry holds for every end-to-end metric (``--trace 0``)
each side's median, quartiles (numpy's linear interpolation), IQR and
runs in seed order, the ratio of the medians, and how many pairs the
change won; for the layers named by ``--layer`` prefixes (``--trace
1``), each side's per-seed values.  Which direction is better comes
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _sig(x: float) -> float:
    """Six significant digits, as the ledger records every figure."""
    return float(f"{x:.6g}")


def summarise(values: list[float]) -> dict:
    """Median, quartiles, IQR and the runs themselves."""
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": _sig(med), "q1": _sig(q1), "q3": _sig(q3),
            "iqr": _sig(q3 - q1), "runs": [_sig(v) for v in values]}


def _better() -> dict[str, str]:
    """Each metric's better direction, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["better"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def _paired(lines: list[dict]) -> tuple[list[int], dict]:
    """Seeds run on both sides, and ``{side: {seed: result}}``."""
    by_side: dict[str, dict[int, dict]] = {side: {} for side in SIDES}
    for line in lines:
        by_side[line["side"]][line["seed"]] = line["result"]
    seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
    return seeds, by_side


def build(lines: list[dict], *, title: str, parent_rev: str, host: str,
          better: dict[str, str], layers: tuple[str, ...]) -> dict:
    """One ledger entry from tagged result lines."""
    seconds = sorted({line["seconds"] for line in lines})
    entry = {
        "change": title, "parent": parent_rev, "host": host,
        "command": ("python3 perfbench/run.py --workload <w> --seed <s> "
                    f"--seconds {'/'.join(f'{s:g}' for s in seconds)} "
                    "--trace <0|1>"),
        "pairing": "alternating: even seeds run the parent first, odd "
                   "seeds the change first",
        "workloads": {},
    }
    for workload in dict.fromkeys(line["workload"] for line in lines):
        mine = [line for line in lines if line["workload"] == workload]
        doc: dict = {}
        seeds, res = _paired([ln for ln in mine if not ln["trace"]])
        if seeds:
            doc["seeds"] = seeds
            doc["end_to_end"] = {}
            for name in res["parent"][seeds[0]]["metrics"]:
                side_runs = {side: [res[side][s]["metrics"][name]["value"]
                                    for s in seeds] for side in SIDES}
                sign = 1.0 if better[name] == "higher" else -1.0
                won = sum(sign * (c - p) > 0 for p, c in
                          zip(side_runs["parent"], side_runs["change"]))
                stats = {side: summarise(side_runs[side]) for side in SIDES}
                doc["end_to_end"][name] = {
                    "better": better[name], **stats,
                    "change_over_parent": _sig(stats["change"]["median"]
                                               / stats["parent"]["median"]),
                    "pairs_change_better": f"{won}/{len(seeds)}"}
        t_seeds, t_res = _paired([ln for ln in mine if ln["trace"]])
        if t_seeds and layers:
            names = [name for name in t_res["parent"][t_seeds[0]]["metrics"]
                     if name.startswith(layers)]
            doc["traced"] = {"seeds": t_seeds} | {
                side: {name: [_sig(t_res[side][s]["metrics"][name]["value"])
                              for s in t_seeds] for name in names}
                for side in SIDES}
        doc["correct"] = {side: all(ln["result"]["correct"] for ln in mine
                                    if ln["side"] == side) for side in SIDES}
        entry["workloads"][workload] = doc
    return entry


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_pairs(args) -> None:
    """Run every seed in both checkouts, alternating, appending lines."""
    dirs = {"parent": args.parent, "change": args.change}
    with open(args.out, "a") as out:
        for seed in _seeds(args.seeds):
            for side in (SIDES if seed % 2 == 0 else SIDES[::-1]):
                cmd = [sys.executable, "perfbench/run.py", "--workload",
                       args.workload, "--seed", str(seed), "--seconds",
                       f"{args.seconds:g}", "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=dirs[side], text=True,
                                      capture_output=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode not in (0, 1) or not lines:
                    raise SystemExit(f"{side} seed {seed} failed:\n"
                                     f"{proc.stderr}")
                out.write(json.dumps({
                    "side": side, "workload": args.workload, "seed": seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "result": json.loads(lines[-1])}, sort_keys=True) + "\n")
                out.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs")
    r.add_argument("--parent", required=True, help="parent checkout")
    r.add_argument("--change", required=True, help="changed checkout")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="e.g. 60-69")
    r.add_argument("--seconds", type=float, default=16.0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True, help="tagged lines (appended)")
    b = sub.add_parser("build", help="fold tagged lines into an entry")
    b.add_argument("lines", nargs="+", help="files of tagged lines")
    b.add_argument("--title", required=True, help="what the change does")
    b.add_argument("--parent-rev", required=True)
    b.add_argument("--host", default="shared 2-vCPU VM (other tenants' "
                                      "load varies)")
    b.add_argument("--layer", action="append", default=None,
                   help="traced layer prefix (default fabric.timeflow.)")
    b.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        run_pairs(args)
        return 0
    lines = []
    for path in args.lines:
        with open(path) as fh:
            lines += [json.loads(ln) for ln in fh if ln.strip()]
    entry = build(lines, title=args.title, parent_rev=args.parent_rev,
                  host=args.host, better=_better(),
                  layers=tuple(args.layer or ("fabric.timeflow.",)))
    with open(args.out, "w") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record benchmark runs of this checkout, alone or against a parent commit.

Runs ``perfbench/run.py`` as it is, ``--trace 0``, and writes
``BENCH_<label>.json`` at the repository root::

    python tools/bench_record.py --label L [--parent REV] [--pairs K]
        [--seconds S] [--workloads W ...] [--seed N]

Without ``--parent`` it runs each workload K times in this checkout. With
``--parent`` it extracts the committed files of REV into a temporary
directory (``git archive``, offline, and nothing is left in ``.git`` if the
run is stopped) and runs K pairs per workload, one run on each side,
alternating which side starts a pair. From each run it keeps the last two
lines of standard output, the metadata and the result, and from them the
seven end-to-end metrics. ``tools/values_digest.py`` of this checkout runs
in both trees. Per workload and metric the file holds every run's value,
each side's median and quartiles, the pairs this checkout wins, the ratio
of the medians beside the bound in ``BENCHMARK.json``, and whether the
medians differ by more than the parent's interquartile range. The file
also records both commits, whether this checkout has uncommitted changes,
and the machine of the first run.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "tools/values_digest.py"


def parse_run(stdout: str) -> dict:
    """The metadata and the result of one run from its standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("a run prints its metadata and its result as its last two lines")
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "meta": meta}


def _stats(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list, spec: list) -> dict:
    """Per metric of `spec` (BENCHMARK.json's end_to_end entries), the values
    and statistics of `runs`, a list of {"side", "pair", "metrics"} records.
    A metric of both sides adds the wins of the "head" side over the pairs,
    the ratio of the medians and whether it is beyond the metric's bound,
    and whether the medians differ by more than the parent's IQR."""
    out = {}
    for entry in spec:
        name, lower = entry["name"], entry["better"] == "lower"
        sides = {side: [r["metrics"][name] for r in runs if r["side"] == side]
                 for side in ("parent", "head")}
        rec = {side: {"values": vals, **_stats(vals)} for side, vals in sides.items() if vals}
        if len(rec) == 2:
            pairs = {}
            for r in runs:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
            both = [p for p in pairs.values() if len(p) == 2]
            wins = sum((p["head"] < p["parent"]) if lower else (p["head"] > p["parent"])
                       for p in both)
            par, head = rec["parent"], rec["head"]
            ratio = head["median"] / par["median"] if par["median"] else None
            worse = None if ratio is None else (ratio - 1.0 if lower else 1.0 - ratio)
            rec.update({"wins": f"{wins}/{len(both)}", "median_ratio": ratio,
                        "bound": entry["bound"],
                        "beyond_bound": worse is not None and worse > entry["bound"],
                        "resolved": abs(head["median"] - par["median"]) > par["q3"] - par["q1"]})
        out[name] = rec
    return out


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(rev: str, dest: Path) -> str:
    """Write the committed files of `rev` under `dest`; return its full hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _run(tree: Path, workload: str, seconds: float, seed) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def _digest(tree: Path) -> dict:
    out = subprocess.run([sys.executable, DIGEST], cwd=tree, check=True, capture_output=True,
                         text=True).stdout
    return {" ".join(line.split()[:2]): line.split()[-1] for line in out.splitlines()}


def record(label, parent, pairs, seconds, workloads, seed) -> Path:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    head = {"commit": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no"))}
    doc = {"label": label, "command": spec["command"], "seconds": seconds, "seed": seed,
           "pairs": pairs, "head": head, "parent": None, "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"head": ROOT}
        if parent:
            trees["parent"] = Path(tmp)
            doc["parent"] = {"commit": _extract(parent, trees["parent"])}
            # one digest script for both trees, so equal values print equal digests
            (trees["parent"] / "tools").mkdir(exist_ok=True)
            shutil.copy(ROOT / DIGEST, trees["parent"] / DIGEST)
        for wl in workloads:
            runs = []
            for k in range(pairs):
                order = ["parent", "head"] if k % 2 == 0 else ["head", "parent"]
                for side in [s for s in order if s in trees]:
                    run = _run(trees[side], wl, seconds, seed)
                    print(f"{wl} pair {k} {side}: "
                          + " ".join(f"{m}={v:.4g}" for m, v in run["metrics"].items()),
                          file=sys.stderr, flush=True)
                    doc["machine"] = doc["machine"] or {
                        key: run["meta"][key] for key in ("machine", "versions", "thread_env")}
                    runs.append({"side": side, "pair": k, "first": side == order[0],
                                 "correct": run["correct"], "attempted": run["attempted"],
                                 "failed": run["failed"], "metrics": run["metrics"]})
            doc["workloads"][wl] = {"runs": runs, "summary": summarize(runs, spec["end_to_end"])}
        digests = {side: _digest(tree) for side, tree in trees.items()}
    doc["digests"] = digests
    if parent:
        doc["digests_equal"] = {key: digests["head"][key] == digests["parent"].get(key)
                                for key in digests["head"]}
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--parent", help="commit to compare against (default: this checkout alone)")
    ap.add_argument("--pairs", type=int, default=5, help="runs per side and workload")
    ap.add_argument("--seconds", type=float, default=35.0, help="length of each run")
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, help="input seed (default: the benchmark's own)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    print(record(args.label, args.parent, args.pairs, args.seconds, args.workloads, args.seed))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Alternating perfbench pairs of a base revision and the working tree.

    python3 scripts/bench_pairs.py --base REV --workload W --pairs N --seconds S [--first-seed K]

Builds both sides the same way: ``git archive`` of ``REV``, and of the tree
that ``git add -A`` would commit from the working tree (written through a
temporary index).  Each pair unpacks both archives afresh into two sibling
directories, ``a`` and ``b``, and swaps which side gets which name on every
pair, so that neither a tree's caches nor where its files land in memory
stays with one side.  Then runs ``perfbench/run.py --workload W --seconds S``
once in each tree, on seeds ``K..K+N-1`` (``K`` is 1 unless given), with the
base first on pairs 0 and 3 of every four, so that each order meets each
name.  Writes ``BENCH_<W>.json`` at the root of the checkout: the machine
(nproc, Python, numpy and scipy), both revisions, each pair's directories,
end-to-end metrics (the ``end_to_end`` names of BENCHMARK.json), ``correct``
and ``failed``, and per metric the median and quartiles of each side, the
number of pairs the change won, and the median of the paired ratios
change/base with a distribution-free interval (sign-test order statistics).
The per-kind figures that perfbench prints, each command kind's median
latency (``kind *_p50_ms``) and each MC estimator's time to a standard error
of 1e-3 (``metric *_s_to_se1e-3``), are kept per run and summarised the same
way, lower being better, both raw and divided by that run's calibration
(``raw calibration_ms``, as ``<name>/calibration_ms``), which takes out the
machine's speed during the run as ``wall_cal`` does.

``--base HEAD`` on a clean tree runs the same code on both sides: that A/A
control shows what the harness reads on identical code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "affinity", "python", "numpy", "scipy", "platform")
# (section, name suffix) of the per-kind report lines kept in the record
KIND_LINES = (("kind", "_p50_ms"), ("metric", "_s_to_se1e-3"))
# the report line of the run's median calibration time
CALIBRATION = ["raw", "calibration_ms"]


def parse_run(stdout: str) -> dict:
    """``{"machine", "correct", "attempted", "failed", "metrics", "kinds"}`` of one perfbench run.

    ``metrics`` maps each metric name to its value and ``kinds`` each per-kind
    figure of :data:`KIND_LINES` to its value, and, where the run reports its
    calibration, ``<name>/calibration_ms`` to that value over the calibration;
    ``machine`` is the run's ``# machine`` line without the run settings.
    """
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    machine = next(json.loads(line.removeprefix("# machine "))
                   for line in lines if line.startswith("# machine "))
    kinds, calibration = {}, None
    for fields in map(str.split, lines[:-1]):
        if len(fields) < 3 or fields[2] == "n/a":
            continue
        if fields[:2] == CALIBRATION:
            calibration = float(fields[2])
        elif any(fields[0] == section and fields[1].endswith(suffix)
                 for section, suffix in KIND_LINES):
            kinds[fields[1]] = float(fields[2])
    if calibration:
        kinds.update({f"{name}/calibration_ms": value / calibration
                      for name, value in kinds.items()})
    return {
        "machine": {k: machine.get(k) for k in MACHINE_KEYS},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "kinds": kinds,
    }


def _spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def _ratio_summary(ratios: list, level: float = 0.95) -> dict:
    """Median of the paired ratios and its sign-test interval.

    The interval is the ``k``-th smallest and ``k``-th largest ratio, with
    ``k`` the largest count such that ``P(Binomial(n, 1/2) < k) <= (1 - level)/2``;
    its ``coverage`` is ``1 - 2 P(Binomial(n, 1/2) < k)`` whatever the
    distribution of the ratios.  Below 6 pairs no such ``k`` exists at 95%, and
    the interval is None.
    """
    n = len(ratios)
    ordered = sorted(ratios)
    k, tail = 0, 0.0
    while k < n // 2 and tail + math.comb(n, k) / 2**n <= (1.0 - level) / 2:
        tail += math.comb(n, k) / 2**n
        k += 1
    interval = ({"lo": ordered[k - 1], "hi": ordered[n - k], "coverage": 1.0 - 2.0 * tail}
                if k else None)
    return {"median": statistics.median(ordered), "interval": interval}


def _summary(base: list, change: list, better: str) -> dict:
    """Both sides' spread, the pairs the change won and the paired ratios of one figure."""
    sign = 1.0 if better == "lower" else -1.0
    return {
        "better": better,
        "base": _spread(base),
        "change": _spread(change),
        "change_wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
        "ratio": _ratio_summary([c / b for b, c in zip(base, change)]),
    }


def build_record(workload: str, seconds: float, metrics: dict, base_rev: str,
                 change_rev: str, pairs: list) -> dict:
    """The ``BENCH_<workload>.json`` record.

    ``metrics`` maps each end-to-end metric to ``"lower"`` or ``"higher"``
    (which is better); ``pairs`` holds ``{"seed", "first", "dirs", "base",
    "change"}`` per pair, where ``dirs`` maps each side to its directory name
    and each side is a :func:`parse_run` result.  ``kind_summary`` covers the
    per-kind figures that every run of both sides reports.
    """
    summary = {name: _summary([p["base"]["metrics"][name] for p in pairs],
                              [p["change"]["metrics"][name] for p in pairs], better)
               for name, better in metrics.items()}
    kinds = sorted(set.intersection(*(set(p[side]["kinds"]) for p in pairs
                                      for side in ("base", "change"))))
    kind_summary = {name: _summary([p["base"]["kinds"][name] for p in pairs],
                                   [p["change"]["kinds"][name] for p in pairs], "lower")
                    for name in kinds}
    return {
        "workload": workload,
        "seconds": seconds,
        "machine": pairs[0]["change"]["machine"],
        "base": base_rev,
        "change": change_rev,
        "pairs": [
            {"seed": p["seed"], "first": p["first"], "dirs": p["dirs"],
             **{side: {"correct": p[side]["correct"], "attempted": p[side]["attempted"],
                       "failed": p[side]["failed"],
                       "metrics": {k: p[side]["metrics"][k] for k in metrics},
                       "kinds": p[side]["kinds"]}
                for side in ("base", "change")}}
            for p in pairs
        ],
        "summary": summary,
        "kind_summary": kind_summary,
    }


def _git(*argv, env=None) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def _worktree_tree(index: Path) -> str:
    """The id of the tree that ``git add -A`` would commit, through the index file ``index``."""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    _git("read-tree", "HEAD", env=env)
    _git("add", "-A", env=env)
    return _git("write-tree", env=env)


def _archive(treeish: str, dest: Path) -> Path:
    """``git archive`` of ``treeish``, a revision or a tree id, written to ``dest``."""
    _git("archive", "--output", str(dest), treeish)
    return dest


def _unpack(archive: Path, dest: Path) -> Path:
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    return dest


def plan(pairs: int, first_seed: int = 1) -> list:
    """``{"seed", "first", "dirs"}`` of each pair: which side runs first, and in which directory.

    The sides swap directory names on every pair, and the base runs first on
    pairs 0 and 3 of every four, so every four pairs meet each order with each
    name once.
    """
    return [{"seed": first_seed + k, "first": "base" if k % 4 in (0, 3) else "change",
             "dirs": {"base": "ab"[k % 2], "change": "ba"[k % 2]}}
            for k in range(pairs)]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
        timeout=20 * seconds + 600,
    )
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_rev = _git("rev-parse", args.base)
    change_rev = _git("rev-parse", "HEAD") + ("-dirty" if _git("status", "--porcelain") else "")
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        archives = {"base": _archive(base_rev, tmp / "base.tar"),
                    "change": _archive(_worktree_tree(tmp / "index"), tmp / "change.tar")}
        for k, pair in enumerate(plan(args.pairs, args.first_seed)):
            trees = {side: _unpack(archives[side], tmp / "trees" / name)
                     for side, name in pair["dirs"].items()}
            order = ("base", "change") if pair["first"] == "base" else ("change", "base")
            for side in order:
                pair[side] = _run(trees[side], args.workload, pair["seed"], args.seconds)
            shutil.rmtree(tmp / "trees")
            pairs.append(pair)
            print(f"pair {k + 1}/{args.pairs} seed {pair['seed']}: " + "  ".join(
                f"{name} {pair['base']['metrics'][name]:.4g} -> "
                f"{pair['change']['metrics'][name]:.4g}" for name in metrics), flush=True)
    record = build_record(args.workload, args.seconds, metrics, base_rev, change_rev, pairs)
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

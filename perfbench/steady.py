#!/usr/bin/env python3
"""Steadiness and determinism check of the benchmark.

    python3 perfbench/steady.py | tee perfbench/BASELINE.md

Runs every workload of BENCHMARK.json for its run_seconds in two
interleaved sets over seeds 1-10 (seed i of set A, then seed i of set B,
alternating which set goes first). For each set and end-to-end metric it
prints the median, quartiles, min and max and the quartile spread as a
share of the median, and whether the two sets agree within BENCHMARK.json's
bounds: each set's spread (setup_s excepted) and the gap between the two
medians must stay within the metric's bound. It fails when a run fails, or
when the digest, virtual end time, exact counters or virtual metrics of one
workload at one seed differ between the sets. It then makes one traced run
per workload and prints its per-layer metrics. Run from the repository
root.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = ("A", "B")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run failed ({' '.join(cmd)}):\n{proc.stdout}\n"
                         f"{proc.stderr[-2000:]}")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"incorrect run: {lines[-1]}")
    return record, result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med if med else 0.0}


def worse_by(metric, base, other):
    """How much `other` is worse than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    gap = (other - base) / base
    return gap if metric["better"] == "lower" else -gap


def emit(line=""):
    print(line, flush=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    ok = True
    first = None
    for workload in (w["name"] for w in bench["workloads"]):
        values = {s: {m["name"]: [] for m in metrics} for s in SETS}
        deterministic = {}
        det_ok = True
        for i, seed in enumerate(SEEDS):
            for s in (SETS if i % 2 == 0 else SETS[::-1]):
                record, result = run_once(workload, seed, seconds, 0)
                first = first or record
                for m in metrics:
                    values[s][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                det = record["deterministic"]
                if seed in deterministic and deterministic[seed] != det:
                    det_ok = ok = False
                    emit(f"NONDETERMINISTIC {workload} seed {seed}: "
                         f"{deterministic[seed]} != {det}")
                deterministic.setdefault(seed, det)
        emit(f"## {workload} ({len(SEEDS)} seeds x 2 sets, "
             f"--seconds {seconds})")
        emit()
        emit("| metric | set | median | q1 | q3 | min | max | spread "
             "| bound | verdict |")
        emit("|---|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            st_by_set = {s: summary(values[s][name]) for s in SETS}
            medians = [st["median"] for st in st_by_set.values()]
            gap = max(worse_by(m, a, b) for a in medians for b in medians)
            spread_ok = name == "setup_s" or all(
                st["spread"] <= bound for st in st_by_set.values())
            agree = spread_ok and gap <= bound
            ok = ok and agree
            for s, st in st_by_set.items():
                verdict = ("agree" if agree else "DISAGREE") + \
                    f" (median gap {gap:.2%})" if s == SETS[-1] else ""
                emit(f"| {name} | {s} | {st['median']:.6g} | {st['q1']:.6g} "
                     f"| {st['q3']:.6g} | {st['min']:.6g} | {st['max']:.6g} "
                     f"| {st['spread']:.2%} | {bound:.0%} | {verdict} |")
        emit()
        emit(f"Digest, virtual end time, counters and virtual metrics "
             f"identical across the sets at every seed: "
             f"{'yes' if det_ok else 'NO'}")
        emit()
        _, traced = run_once(workload, SEEDS[0], seconds, 1)
        emit(f"Traced run, seed {SEEDS[0]}:")
        emit()
        emit("| per-layer metric | value | unit |")
        emit("|---|---|---|")
        for name, v in traced["metrics"].items():
            emit(f"| {name} | {v['value']:.6g} | {v['unit']} |")
        emit()
    emit(f"Host: {json.dumps(first['host'])}")
    emit(f"Overall: {'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

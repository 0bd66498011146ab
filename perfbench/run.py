"""Benchmark of wahlkit, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ledger --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``ledger`` (``wahlkit verify``), ``search`` (the
(2.1) rediscovery) and ``free_infer`` (plan inference without steps);
``all`` runs the three in turn.  Each workload runs whole rounds for
``--seconds`` seconds, every operation in a fresh interpreter (worker.py);
set-up (setup_probe.py) and the machine's speed (reference.py) are timed
in other fresh interpreters between the operations.  Every output is
checked against checkers.py, which recomputes it without wahlkit.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Details go to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checkers
import selftest
import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("ledger", "search", "free_infer")
MIN_PROBES = 7
# run_s and setup_s are given for a machine on which reference.py takes this
# long: the measured times are scaled by REFERENCE_S / (measured reference)
REFERENCE_S = 0.1
WORKER_TIMEOUT_S = 150
SEARCH_TARGET = "2.1"  # the catalog record the search must rediscover


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed worker,
    metric names it cannot serve)."""


def _subprocess(args: list[str], timeout: float, env=None) -> str:
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(args[0]).name} did not finish in {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def probe() -> dict:
    """A set-up sample (import and catalog-load times) and a reference time,
    each from a fresh interpreter."""
    sample = json.loads(_subprocess([str(HERE / "setup_probe.py"), str(SRC)], 60))
    sample.update(json.loads(_subprocess([str(HERE / "reference.py")], 60)))
    return sample


def run_op(workload: str, name: str, seed: int, trace: int) -> dict:
    """One operation in a fresh worker process."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    args = [str(HERE / "worker.py"), "--workload", workload, "--op", name,
            "--trace", str(trace)]
    return json.loads(_subprocess(args, WORKER_TIMEOUT_S, env))


def run_rounds(workload: str, seed: int, seconds: float,
               trace: int) -> tuple[list[dict], list[dict]]:
    """Whole rounds until `seconds` have passed, and the probes between them.

    A round runs each operation once in a fresh process; traced, each runs
    first plain, then traced.  A probe runs before the first operation and
    after each one, so every operation gets the mean reference time of the
    probes on either side of it.  A first probe, which may write the
    bytecode cache, is not kept.
    """
    names = worker.op_names(workload, seed)
    probe()
    probes = [probe()]
    rounds = []
    start = time.perf_counter()
    while True:
        plain, traced = [], []
        for name in names:
            ops = [run_op(workload, name, seed, 0)]
            if trace:
                ops.append(run_op(workload, name, seed, 1))
            probes.append(probe())
            for report in ops:
                report["reference_s"] = (probes[-2]["reference_s"]
                                         + probes[-1]["reference_s"]) / 2
            plain.append(ops[0])
            traced += ops[1:]
        rounds.append({"plain": plain, "traced": traced})
        if time.perf_counter() - start >= seconds:
            break
    while len(probes) < MIN_PROBES:
        probes.append(probe())
    return rounds, probes


def _round_trip(lines: list[str]) -> list[str]:
    """format_record(parse_record(line)) gives the line back, and parsing
    that again gives the same record."""
    from wahlkit.catalog.records import format_record, parse_record
    errors = []
    for line in lines:
        record = parse_record(line)
        again = format_record(record)
        if again != line or parse_record(again) != record:
            errors.append(f"record does not round-trip: {line[:60]}...")
    return errors


def check_outputs(workload: str, reports: list[dict],
                  catalog: checkers.Catalog) -> list[str]:
    """Every distinct output of each operation, checked; all rounds (plain
    and traced) must give one and the same output."""
    outputs: dict[str, list] = {}
    for report in (r for r in reports if "output" in r):
        distinct = outputs.setdefault(report["op"], [])
        if report["output"] not in distinct:
            distinct.append(report["output"])
    errors = []
    for name, outs in outputs.items():
        if len(outs) > 1:
            errors.append(f"{name}: {len(outs)} different outputs across rounds")
        for out in outs:
            if workload == "ledger":
                if out["exit"] != 0:
                    errors.append(f"verify exited {out['exit']}")
                errors += checkers.check_ledger(catalog, out["payload"])
            elif workload == "search":
                if out["exit"] != 0:
                    errors.append(f"search exited {out['exit']}")
                errors += checkers.check_search(catalog, out["payload"],
                                                worker.SEARCH_K2, SEARCH_TARGET)
                errors += _round_trip(out["payload"]["records"])
            else:
                record = catalog.records.get(name) or catalog.main_record(int(name[4:]))
                errors += [f"({name}) {e}" for e in
                           checkers.check_inference(catalog.a0, record, out)]
    return errors


def _sum_by_group(traces: list[dict], key: str) -> Counter:
    total: Counter = Counter()
    for trace in traces:
        total.update(trace[key])
    return total


def layer_values(rounds: list[dict], probes: list[dict], declared: list[str]) -> dict:
    """Per-round layer numbers under the per_layer names of BENCHMARK.json.

    `<group>.calls` is the span group's calls, `<group>.s` and
    `<group>.self_s` its self time; the other names are defined here.
    """
    n = len(rounds)
    traced = [r for rnd in rounds for r in rnd["traced"]]
    traces = [r["trace"] for r in traced]
    calls, self_s = _sum_by_group(traces, "calls"), _sum_by_group(traces, "self_s")
    total_s, marked = _sum_by_group(traces, "total_s"), _sum_by_group(traces, "marked")
    states = sum(t["states"] for t in traces)
    searching = sum(total_s[g] for g in spans.SEARCHES)
    leaves = sum(calls[g] for g in spans.MARKERS)
    traced_s = sum(r["time_s"] for r in traced) / n
    plain_s = sum(r["time_s"] for rnd in rounds for r in rnd["plain"]) / n
    values = {
        "plans.states": states / n,
        "plans.states_per_s": states / searching if searching else 0.0,
        "plans.leaf_yield": sum(marked.values()) / leaves if leaves else 0.0,
        "trace.run_s": traced_s,
        # traced and plain runs of each operation alternate within the run
        "trace.overhead_s": traced_s - plain_s,
        # the operations' own clock, minus the time inside top-level spans
        "trace.outside_s": sum(r["time_s"] - r["trace"]["top_level_s"]
                               for r in traced) / n,
        "import.s": statistics.median(p["import_s"] for p in probes),
        "catalog.load.s": statistics.median(p["load_s"] for p in probes),
    }
    for name in declared:
        if name in values:
            continue
        group, _, kind = name.rpartition(".")
        if group not in spans.GROUPS or kind not in ("calls", "s", "self_s"):
            raise BenchError(f"per_layer metric {name} names no span group of spans.py")
        values[name] = (calls if kind == "calls" else self_s)[group] / n
    return {name: values[name] for name in declared}


def _trace_errors(rounds: list[dict]) -> list[str]:
    """A traced operation's top-level spans lie within the time the worker
    measured around the whole operation, on its own clock."""
    errors = []
    for report in (r for rnd in rounds for r in rnd["traced"]):
        excess = report["trace"]["top_level_s"] - report["time_s"]
        if excess > 0:
            errors.append(f"{report['op']}: spans last {excess:.3g} s longer than "
                          f"the operation")
    return errors


def measure(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """One workload: set-up probes, the rounds, checks, metrics."""
    rounds, probes = run_rounds(workload, seed, seconds, trace)
    plain = [r for rnd in rounds for r in rnd["plain"]]
    reports = plain + [r for rnd in rounds for r in rnd["traced"]]
    failures = {r["op"]: r["error"] for r in reports if "error" in r}
    catalog = checkers.Catalog(ROOT)
    errors = [f"self-test: {e}" for e in selftest.run(catalog)]
    errors += check_outputs(workload, reports, catalog)
    times: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for report in plain:
        times.setdefault(report["op"], []).append(report["time_s"])
        scaled.setdefault(report["op"], []).append(report["time_s"] / report["reference_s"])
    if trace:
        errors += _trace_errors(rounds)
        declared = spec["per_layer"]
        values = layer_values(rounds, probes, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        # the machine's speed changes in phases of seconds to minutes, by up
        # to 1.7 times; each time is scaled by the reference timed next to
        # it, and the mean over the rounds averages what the scaling leaves
        values = {
            "setup_s": REFERENCE_S * statistics.median(
                (p["import_s"] + p["load_s"]) / p["reference_s"] for p in probes),
            # one round: the mean scaled time of each of its operations, summed
            "run_s": REFERENCE_S * sum(statistics.mean(t) for t in scaled.values()),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         f"BENCHMARK.json")
    result = {"correct": not errors, "attempted": len(reports),
              "failed": sum(1 for r in reports if "error" in r),
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    RESULTS.mkdir(exist_ok=True)
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "rounds": len(rounds), "times": times, "probes": probes,
              "round_s": sum(statistics.mean(t) for t in times.values()),
              "failures": failures, "errors": errors, "result": result}
    if trace:
        detail["traced"] = [{k: r[k] for k in ("op", "time_s", "trace")}
                            for rnd in rounds for r in rnd["traced"]]
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for line in errors[:20]:
        print(f"{workload}: CHECK FAILED: {line}")
    missing = {m for r in reports if "trace" in r for m in r["trace"]["missing"]}
    for name in sorted(missing):
        print(f"{workload}: traced function {name} not found; its layer reads 0")
    for name, message in failures.items():
        print(f"{workload}: operation {name} failed: {message}")
    print(f"{workload}: {len(rounds)} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed, outputs {'correct' if not errors else 'WRONG'}")
    print(f"{workload}: unscaled round {detail['round_s']:.4g} s, reference "
          f"{statistics.mean(p['reference_s'] for p in probes):.4g} s")
    for name, metric in result["metrics"].items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (SRC / "wahlkit" / "__init__.py").is_file():
            raise BenchError(f"no wahlkit sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        sys.path.insert(0, str(SRC))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: measure(w, args.seed, seconds, args.trace, spec) for w in names}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        for workload, result in results.items():
            print(f"{workload}: {json.dumps(result)}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one operation of a workload in a fresh interpreter and report it.

Started by run.py as ``python3 perfbench/worker.py --workload W --op NAME
--trace T``.  It imports wahlkit from the checkout's ``src``, runs
the operation once, and prints one JSON object: its time, its output
(checked by run.py) or its error, and the peak resident memory.  With
``--trace 1`` it first installs the spans of spans.py and adds their
totals.  One process runs one operation, so every operation is timed as a
user would meet it in a new ``wahlkit`` process: nothing a call leaves in
memory is reused by the next one.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LEDGER_ARGV = ("verify", "--format", "json")
SEARCH_K2 = 2
SEARCH_ARGV = ("search", "--k2", str(SEARCH_K2), "--pool", "A2,A3,B1,C1,C2,D1",
               "--max-blowups", "7", "--format", "json")
# free inference recovers these today: (2.1), (2.2), (3.2), (4.1), (5.1) are
# bound by tower states, (6.1) and (7.1) by the base-node combination loop
FREE_RECORDS = ("2.1", "2.2", "3.2", "4.1", "5.1", "6.1", "7.1")
FREE_MAIN_K2 = 2  # main K^2=2 of expected.json, also without steps


@dataclasses.dataclass
class Op:
    """One call into the program: `run` is timed, `summarize` is not."""

    name: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    import wahlkit
    where = Path(wahlkit.__file__).resolve().parent
    if where != (SRC / "wahlkit").resolve():
        raise SystemExit(f"wahlkit imported from {where}, not from {SRC}")


def _cli_op(name: str, argv) -> Op:
    from wahlkit import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(list(argv))
        return code, buf.getvalue()

    def summarize(raw):
        code, stdout = raw
        if code not in (0, 1):
            raise RuntimeError(f"exit code {code}")
        return {"exit": code, "payload": json.loads(stdout)}
    return Op(name, run, summarize)


def _free_ops() -> list[Op]:
    from wahlkit.catalog.a0 import frozen_a0
    from wahlkit.catalog.records import ChainSpec, SurfaceRecord
    from wahlkit.catalog.verify import load_expected, load_records
    from wahlkit import plans  # looked up per call, so spans can wrap infer_plan

    a0 = frozen_a0()
    by_id = {r.rid: r for r in load_records()}
    records = [dataclasses.replace(by_id[rid], steps=()) for rid in FREE_RECORDS]
    data = load_expected()["mains"][str(FREE_MAIN_K2)]
    records.append(SurfaceRecord(
        f"main{FREE_MAIN_K2}", FREE_MAIN_K2, tuple(data["curves"]), data["det"], (),
        tuple(ChainSpec(c["n"], c["a"], tuple(c["chain"])) for c in data["chains"])))

    def op(record) -> Op:
        def run():
            return plans.infer_plan(record, a0.restrict(record.curves))

        def summarize(result):
            if not result.success:
                raise RuntimeError(f"no plan after {result.states} states")
            return {"plan": [[s.a, s.b, s.occurrence] for s in result.plan.steps],
                    "marked": [list(c) for c in result.marked.wahl_chains],
                    "k2": result.report.k2,
                    "canonical_ample": result.report.ample.canonical_ample,
                    "obstruction": result.report.obstruction,
                    "states": result.states}
        return Op(record.rid, run, summarize)
    return [op(r) for r in records]


def op_names(workload: str, seed: int) -> list[str]:
    """The operations of one round, in the order the seed gives them."""
    if workload == "ledger":
        return ["verify"]
    if workload == "search":
        return ["search"]
    if workload == "free_infer":
        names = list(FREE_RECORDS) + [f"main{FREE_MAIN_K2}"]
        random.Random(seed).shuffle(names)
        return names
    raise SystemExit(f"unknown workload {workload!r}")


def build_ops(workload: str) -> dict[str, Op]:
    if workload == "ledger":
        ops = [_cli_op("verify", LEDGER_ARGV)]
    elif workload == "search":
        ops = [_cli_op("search", SEARCH_ARGV)]
    elif workload == "free_infer":
        ops = _free_ops()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return {op.name: op for op in ops}


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM is reset by exec; ru_maxrss is not, so it would report the parent's
    memory whenever the parent was larger when it started this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def attempt(op: Op, tracer=None) -> dict:
    """Run `op` once: its time, and its output or the error it raised."""
    if tracer is not None:
        tracer.install()
    report: dict = {"op": op.name}
    start = time.perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        report["time_s"] = time.perf_counter() - start
        report["error"] = f"{type(exc).__name__}: {exc}"
        return report
    report["time_s"] = time.perf_counter() - start
    try:
        report["output"] = op.summarize(raw)
    except Exception as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
    return report


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--op", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    _import_program()
    ops = build_ops(args.workload)
    if args.op not in ops:
        raise SystemExit(f"{args.workload} has no operation {args.op!r}")
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    report = attempt(ops[args.op], tracer)
    if tracer is not None:
        report["trace"] = tracer.totals()
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))


if __name__ == "__main__":
    main()

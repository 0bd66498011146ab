"""The verification ledger: every numeric claim of the catalog re-checked.

Each assertion becomes one pass/fail line: the A0 fibration skeleton,
chain recognition, restriction matrices and determinants, log-geography
identities, obstruction dimensions, T-joins and wormhole compositions, and
the surface certificates.  A construction's certificate is
`assembly.surface_report` of its surface marked on the whole of A0, built
once, and `_certify` checks three of its entries: K^2 from the marking,
with the singularity list as its detail, an ample canonical class and a
trivial pi1 verdict; an inconclusive verdict is a failed check.  A
record's plan is the one that inference recovers on the record's own
curves, a main's its frozen `recovered_plan`, marked there as the stated
chains.  A plan that is not found, or not frozen, is a failed check, so
the ledger passes only what it proved.  The ledger is the only validator
of an A0 model.

A construction is certified on the whole of A0, as its surface is the
blown-up K3 with all of A0's curves on it, so the meridian relations of
pi1 come from the whole configuration (after Lee-Park, Invent. Math. 170,
2007).  That is sound once its plan replays on the construction's own
curves, as inference and the main's first replay show: each blown-up node
then lies between two of them, and a node of A0 lies on exactly two
curves, so every other curve of A0 stays an untouched (-2)-curve.  Such a
curve D has K.D >= 0: it is a zero curve of the contracted canonical class
or a relation of the meridian argument for pi1, and it never breaks
nefness.  The zero curves, with the Du Val chains they meet, must still
contract to rational double points for the canonical model to be ample,
which `nef_ample_check` checks.

No construction reads another's result, so `verify_all` runs them as
separate tasks, each writing its own checks: the A0 checks, each record,
the T-joins, the wormholes and each main, in that catalog order.  Task i
falls in share i mod n, with one share per CPU the process may use
(`os.sched_getaffinity`) and never more shares than tasks.  Share 0 runs
in the calling process and every other share in a child made by
`os.fork`, which pickles its checks into a pipe.  The checks are merged
in catalog order, so the ledger is the same whatever n is.  A share stops
at its first task that raises, and `verify_all` raises the exception of
the earliest such task in catalog order: the one a run of the tasks in
order stops at, since every task before it has run in its share.  With
one CPU, or without `os.fork`, the tasks run in order in the calling
process, with no pipe and no pickle.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..chains import (ChainError, CyclicQuotient, blow_down_compose, length_bound,
                      meridian_exponents, recognize_wahl, t_singularity)
from ..configuration import Configuration, ConfigurationError, geography_check
from ..assembly import (AssemblyError, MarkedSurface, SurfaceReport, obstruction_dim,
                        surface_report)
from ..plans import BlowupPlan, PlanError, PlanStep, _search_plan, mark_chains
from .a0 import (SECTIONS, A0Constraints, CatalogError, build_a0, frozen_a0,
                 incidences_of)
from .records import ChainSpec, RecordError, SurfaceRecord, parse_records_file

__all__ = ["Check", "Ledger", "INFER_BUDGET", "load_records", "load_expected",
           "ledger_constraints", "verify_all"]

INFER_BUDGET = 300000  # states each record's plan inference may take


@dataclass(frozen=True)
class Check:
    section: str
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        detail = f" -- {self.detail}" if self.detail else ""
        return f"[{mark}] {self.section}: {self.name}{detail}"


@dataclass
class Ledger:
    checks: list[Check] = field(default_factory=list)

    def add(self, section: str, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(section, name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"{sum(c.ok for c in self.checks)}/{len(self.checks)} checks passed")
        return out

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "passed": sum(c.ok for c in self.checks),
                "total": len(self.checks),
                "checks": [{"section": c.section, "name": c.name,
                            "ok": c.ok, "detail": c.detail} for c in self.checks]}


def _data_text(name: str) -> str:
    return resources.files("wahlkit.catalog").joinpath(f"data/{name}").read_text()


def load_records(path: Optional[str] = None) -> list[SurfaceRecord]:
    text = Path(path).read_text(encoding="utf-8") if path else _data_text("records.txt")
    try:
        return parse_records_file(text)
    except RecordError as exc:
        raise RecordError(f"{path or 'records.txt'}: {exc}") from None


# The shape of what the ledger reads from expected.json.  A dict lists the
# keys an object must have, or, keyed by `int`, the value of every key,
# which must be an integer written as `str(int(key))` (ASCII digits, no
# sign, no leading zero), so no two keys name one integer; [x] is a list of
# x, and a tuple a list of exactly its entries.  `recovered_plan` is left
# to the ledger, which reports a malformed plan as a failed check.
_MAIN_SHAPE = {"curves": [str], "matrix": [[int]], "det": int,
               "chains": [{"n": int, "a": int, "chain": [int]}], "duval": [[str]],
               "ksba_dim": int}
_EXPECTED_SHAPE = {
    "a0": {"r": int, "t2": int, "log_chern": [int], "obstruction_cap": int},
    "mains": {int: _MAIN_SHAPE},
    "tjoins": [{"record": str, "n": int, "a": int}],
    "wormholes": [{"records": (str, str), "m": int, "q": int}],
}


def _check_shape(value, shape, where: str) -> None:
    """Raise CatalogError, naming the place, where `value` departs from `shape`."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise CatalogError(f"{where} is not an object")
        if int in shape:
            for key, item in value.items():
                if not (key.isdecimal() and str(int(key)) == key):
                    raise CatalogError(f"{where} has key {key!r}, not an integer")
                _check_shape(item, shape[int], f"{where}.{key}")
            return
        for key, item_shape in shape.items():
            if key not in value:
                raise CatalogError(f"{where} lacks {key!r}")
            _check_shape(value[key], item_shape, f"{where}.{key}")
    elif isinstance(shape, (list, tuple)):
        if not isinstance(value, list):
            raise CatalogError(f"{where} is not a list")
        shapes = shape if isinstance(shape, tuple) else shape * len(value)
        if len(value) != len(shapes):
            raise CatalogError(f"{where} has {len(value)} entries, not {len(shapes)}")
        for i, (item, item_shape) in enumerate(zip(value, shapes)):
            _check_shape(item, item_shape, f"{where}[{i}]")
    elif type(value) is not shape:
        raise CatalogError(f"{where} is not {'an integer' if shape is int else 'a string'}")


def load_expected(path: Optional[str] = None) -> dict:
    """The expected values, checked for the keys and types the ledger reads."""
    text = Path(path).read_text(encoding="utf-8") if path else _data_text("expected.json")
    try:
        expected = json.loads(text)
        _check_shape(expected, _EXPECTED_SHAPE, "expected")
    except ValueError as exc:  # invalid JSON, or a CatalogError from the shape
        raise CatalogError(f"{path or 'expected.json'}: {exc}") from None
    return expected


def ledger_constraints(expected: dict,
                       records: Sequence[SurfaceRecord]) -> A0Constraints:
    """Everything the catalog data pins down about the big configuration."""
    cons = A0Constraints()
    for data in expected["mains"].values():
        cons.matrices.append((tuple(data["curves"]), data["matrix"]))
        sections_in = [c for c in data["curves"] if c in SECTIONS]
        for chain in data["duval"]:
            for member in chain:
                for s in sections_in:
                    cons.add_disjoint(member, s)
    main_sets = {tuple(d["curves"]) for d in expected["mains"].values()}
    for record in records:
        for step in record.steps:
            cons.add_incident(step.a, step.b)
        if tuple(record.curves) in main_sets:
            continue  # same restriction as a printed matrix
        cons.determinants.append((record.curves, record.det))
    return cons


def _check_chain(ledger: Ledger, section: str, spec: ChainSpec) -> None:
    sing = recognize_wahl(spec.chain)
    if sing is None:
        ledger.add(section, f"chain {list(spec.chain)} is a Wahl chain", False)
        return
    exact = (sing.n, sing.a) == (spec.n, spec.a)
    ok = sing.n == spec.n and spec.a in (sing.a, sing.n - sing.a)
    how = "as printed" if exact else f"reversed orientation (a={sing.a})"
    ledger.add(section, f"chain of ({spec.n},{spec.a}) recognized", ok, how)


def verify_all(a0: Optional[Configuration] = None,
               records: Optional[Sequence[SurfaceRecord]] = None,
               expected: Optional[dict] = None,
               infer_budget: int = INFER_BUDGET,
               with_inference: bool = True) -> Ledger:
    """Run the complete ledger; failures are report entries, not errors."""
    a0 = a0 if a0 is not None else frozen_a0()
    records = list(records) if records is not None else load_records()
    expected = expected if expected is not None else load_expected()

    tasks = [partial(_verify_a0, a0=a0, expected=expected, records=records)]
    tasks += [partial(_verify_record, a0=a0, record=record, with_inference=with_inference,
                      infer_budget=infer_budget) for record in records]
    tasks += [partial(_verify_tjoins, expected=expected, records=records),
              partial(_verify_wormholes, expected=expected, records=records)]
    tasks += [partial(_verify_main, a0=a0, k2=int(k2s), data=data)
              for k2s, data in sorted(expected["mains"].items(), key=lambda kv: int(kv[0]))]
    shares = _shares(tasks)
    ledger = Ledger()
    for i in range(len(tasks)):
        outcome = shares[i % len(shares)][i // len(shares)]
        if isinstance(outcome, Exception):
            raise outcome
        ledger.checks += outcome
    return ledger


def _run_share(tasks: Sequence[Callable[[Ledger], None]]) -> list:
    """Each task's checks, in order, up to the first task that raises, whose
    exception ends the list."""
    outcomes = []
    for task in tasks:
        ledger = Ledger()
        try:
            task(ledger)
        except Exception as exc:
            outcomes.append(exc)
            break
        outcomes.append(ledger.checks)
    return outcomes


def _shares(tasks: Sequence[Callable[[Ledger], None]]) -> list[list]:
    """`_run_share` of each share: task i falls in share i mod the number of
    shares, one per CPU this process may use and never more than the tasks.
    Share 0 runs here, each other one in a forked child that pickles its
    outcomes into a pipe.  Every pipe is read and every child reaped before
    this returns or raises."""
    n = (min(len(os.sched_getaffinity(0)), len(tasks))
         if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    if n <= 1:
        return [_run_share(tasks)]
    import pickle  # only here: the in-process ledger never loads it
    children = []
    try:
        for s in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: never returns into the caller's frames
                code = 1
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as out:
                        pickle.dump(_run_share(tasks[s::n]), out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, read))
        mine = _run_share(tasks[0::n])
    finally:
        received = []
        for pid, read in children:
            with os.fdopen(read, "rb") as src:
                data = src.read()
            received.append((data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    shares = [mine]
    for s, (data, code) in enumerate(received, 1):
        if code != 0:
            raise ChildProcessError(f"ledger share {s} of {n} exited with code {code} "
                                    "and sent no checks")
        shares.append(pickle.loads(data))
    return shares


def _verify_a0(ledger: Ledger, a0: Configuration, expected: dict,
               records: Sequence[SurfaceRecord]) -> None:
    sec = "A0"
    want = expected["a0"]
    ledger.add(sec, "curve count", a0.r == want["r"], f"r={a0.r}")
    ledger.add(sec, "node count", a0.t2 == want["t2"], f"t2={a0.t2}")
    mismatch = _skeleton_mismatch(a0)
    ledger.add(sec, "fibration skeleton", not mismatch, mismatch)
    c1, c2 = a0.log_chern()
    ledger.add(sec, "log Chern numbers", [c1, c2] == want["log_chern"],
               f"({c1},{c2})")
    ledger.add(sec, "log Chern slope 5/2", 2 * c1 == 5 * c2, f"{c1}/{c2}")
    cap = want["obstruction_cap"]
    obs = obstruction_dim(a0, cap)
    ledger.add(sec, f"obstruction with Picard cap {cap}",
               obs == a0.r - cap, f"dim={obs}")
    cons = ledger_constraints(expected, records)
    for order, matrix in cons.matrices:
        n = len(order)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            widths = "/".join(map(str, sorted({len(row) for row in matrix})))
            ledger.add(sec, f"printed matrix on {n} curves", False,
                       f"printed {len(matrix)}x{widths or 0}, expected {n}x{n}")
            continue
        got = a0.intersection_matrix(order)
        bad = [(order[i], order[j]) for i in range(n) for j in range(n)
               if got[i][j] != matrix[i][j]]
        ledger.add(sec, f"printed matrix on {len(order)} curves", not bad,
                   f"first mismatch at {bad[0]}" if bad else "entry-for-entry")
    for pair in sorted(cons.incident):
        if a0.pairing(*pair) < 1:
            ledger.add(sec, f"incidence {pair[0]}.{pair[1]}", False)
    for pair in sorted(cons.disjoint):
        if a0.pairing(*pair) != 0:
            ledger.add(sec, f"disjointness {pair[0]}.{pair[1]}", False)
    ledger.add(sec, "incidence and disjointness facts",
               all(a0.pairing(*p) >= 1 for p in cons.incident) and
               all(a0.pairing(*p) == 0 for p in cons.disjoint),
               f"{len(cons.incident)} required, {len(cons.disjoint)} forbidden")


def _skeleton_mismatch(a0: Configuration) -> str:
    """Where `a0` departs, as a multigraph, from build_a0 of its own
    incidences: the first differing curve or node pair; "" if nowhere."""
    try:
        want = build_a0(incidences_of(a0))
    except CatalogError as exc:
        return str(exc)
    odd = sorted(c.name for c in set(a0.curves) ^ set(want.curves))
    if odd:
        return f"curve {odd[0]} differs from the skeleton's"
    bad = sorted((a0.meets - want.meets) + (want.meets - a0.meets))
    return f"node count differs at {bad[0]}" if bad else ""


def _verify_construction(ledger: Ledger, sec: str, a0: Configuration,
                         record: SurfaceRecord) -> tuple[Configuration, bool]:
    """The checks every construction gets: its chains, their length bound,
    the determinant, the geography identities and the obstruction.

    Returns the configuration on the record's curves, and whether its
    family is unobstructed and its curves meet the geography identities
    (admissibility included).
    """
    for spec in record.chains:
        _check_chain(ledger, sec, spec)
    bound = length_bound("K3", record.k2)
    ledger.add(sec, f"length bound l <= {bound}",
               all(len(c.chain) <= bound for c in record.chains),
               f"lengths {[len(c.chain) for c in record.chains]}")
    sub = a0.restrict(record.curves)
    det = sub.rank_det[1]
    ledger.add(sec, f"determinant {record.det}", det == record.det, f"got {det}")
    p, k = sub.pk_invariants()
    geo = geography_check(len(record.chains), record.k2)
    c1, c2 = sub.log_chern()
    identities = (p == len(record.chains) and k == record.k2 and
                  sub.r == geo.r and sub.t2 == geo.t2 and
                  c1 == 2 * record.k2 and c2 == 24 - p - record.k2 and
                  geo.admissible)
    ledger.add(sec, "geography identities", identities,
               f"P={p} K={k} r={sub.r} t2={sub.t2} c1^2={c1} c2={c2}")
    obs = obstruction_dim(sub)
    ledger.add(sec, "no local-to-global obstruction", obs == 0, f"dim={obs}")
    return sub, obs == 0 and identities


def _certify(ledger: Ledger, sec: str, k2: int, report: SurfaceReport) -> None:
    """The three checks of a construction's certificate, the same for
    records and mains: `report` is `surface_report` of its surface marked
    on the whole of A0.  K^2 is checked against the marking, with the
    surface's singularity list as the detail; the canonical class must be
    ample and the pi1 verdict trivial.  The stated chains' (n, a) are not
    compared again: inference and `mark_chains` mark exactly the stated
    chains, and `_check_chain` compares their numbers."""
    ledger.add(sec, f"K^2 = {k2} from the marking", report.k2 == k2,
               f"got {report.k2}; {', '.join(report.singularities)}")
    ledger.add(sec, "canonical class ample", report.ample.canonical_ample,
               report.ample.status)
    ledger.add(sec, "fundamental group trivial", report.pi1.status == "trivial",
               f"{report.pi1.status}: {report.pi1.justification}")


def _verify_record(ledger: Ledger, a0: Configuration, record: SurfaceRecord,
                   with_inference: bool, infer_budget: int) -> None:
    """A record's checks: the construction's, then its plan inferred on its
    own curves and certified on the whole of A0, replayed on `a0` with the
    inferred Wahl chains (see the module docstring).  It runs inference's
    search alone, without `infer_plan`'s report on the record's curves, so
    each record's one certificate is `surface_report` of the A0 replay."""
    sec = f"record ({record.rid})"
    sub, family_ok = _verify_construction(ledger, sec, a0, record)
    ledger.add(sec, f"family dimension {20 - 2 * record.k2}", family_ok)
    if not with_inference:
        return
    try:
        result = _search_plan(record, sub, infer_budget, prune=True)
        marked = (MarkedSurface(result.plan.execute(a0), result.marked.wahl_chains)
                  if result.success else None)
    except (PlanError, AssemblyError) as exc:
        ledger.add(sec, "plan inference", False, str(exc))
        return
    if marked is None:
        ledger.add(sec, "plan inference", False, result.summary())
        return
    report = surface_report(marked, sub)
    ledger.add(sec, "plan inference", True, f"{result.states} states; K^2={report.k2}")
    _certify(ledger, sec, record.k2, report)


def _record_chain(records: Sequence[SurfaceRecord], rid: str) -> SurfaceRecord:
    for record in records:
        if record.rid == rid:
            return record
    raise CatalogError(f"record ({rid}) not in catalog")


def _composed(record: SurfaceRecord) -> CyclicQuotient:
    """The quotient the record's two chains compose to across a (-1)-curve."""
    if len(record.chains) != 2:
        raise CatalogError(f"record ({record.rid}) has {len(record.chains)} chains, not 2")
    try:
        return blow_down_compose(record.chains[0].chain, record.chains[1].chain)
    except ChainError as exc:
        raise CatalogError(f"record ({record.rid}): {exc}") from None


def _verify_tjoins(ledger: Ledger, expected: dict,
                   records: Sequence[SurfaceRecord]) -> None:
    for jn in expected["tjoins"]:
        sec = f"T-join ({jn['record']})"
        try:
            record = _record_chain(records, jn["record"])
        except CatalogError as exc:
            ledger.add(sec, "record present", False, str(exc))
            continue
        n, a = jn["n"], jn["a"]
        same = len(record.chains) == 2 and record.chains[0].chain == record.chains[1].chain
        ledger.add(sec, "record repeats one chain", same,
                   f"(n,a)=({n},{a})")
        if not same:
            continue
        try:
            cq = _composed(record)
        except CatalogError as exc:
            ledger.add(sec, "self-join composes", False, str(exc))
            continue
        want = CyclicQuotient(2 * n * n, 2 * n * a - 1).normalize()
        ledger.add(sec, f"self-join is 1/{2 * n * n}(1,{2 * n * a - 1})",
                   cq == want, f"got {cq}")
        t = t_singularity(cq.m, cq.q)
        ledger.add(sec, "join is a T-singularity with d=2",
                   t is not None and t.d == 2 and t.n == n,
                   str(t) if t else "not T")


def _verify_wormholes(ledger: Ledger, expected: dict,
                      records: Sequence[SurfaceRecord]) -> None:
    for wh in expected["wormholes"]:
        rid1, rid2 = wh["records"]
        sec = f"wormhole ({rid1})/({rid2})"
        want = CyclicQuotient(wh["m"], wh["q"]).normalize()
        try:
            got = [_composed(_record_chain(records, rid)) for rid in (rid1, rid2)]
        except CatalogError as exc:
            ledger.add(sec, "records present and composable", False, str(exc))
            continue
        ledger.add(sec, f"both compose to 1/{wh['m']}(1,{wh['q']})",
                   got[0] == got[1] == want,
                   f"got {got[0]} and {got[1]}")


def _plan_from_json(steps) -> BlowupPlan:
    """The plan of a `recovered_plan` list of [curve, curve, occurrence] steps."""
    if steps is None:
        raise PlanError("no recovered_plan is frozen")
    if not isinstance(steps, list):
        raise PlanError(f"recovered_plan is not a list of steps: {json.dumps(steps)}")
    plan = []
    for i, step in enumerate(steps):
        if not (isinstance(step, list) and len(step) == 3
                and all(isinstance(name, str) for name in step[:2])
                and type(step[2]) is int and step[2] >= 0):
            raise PlanError(f"recovered_plan[{i}] is not [curve, curve, occurrence >= 0]: "
                            f"{json.dumps(step)}")
        plan.append(PlanStep(*step))
    return BlowupPlan(tuple(plan))


def _verify_main(ledger: Ledger, a0: Configuration, k2: int, data: dict) -> None:
    """A main's checks: the construction's, then its frozen plan replayed on
    the construction's curves and marked there as the stated chains
    (`mark_chains`), then certified on the whole of A0: the plan replayed on
    `a0`, with those Wahl chains and the Du Val chains as ADE chains, which
    that `MarkedSurface` validates (see the module docstring)."""
    sec = f"main K^2={k2}"
    chains = tuple(ChainSpec(c["n"], c["a"], tuple(c["chain"])) for c in data["chains"])
    sub, _ = _verify_construction(ledger, sec, a0, SurfaceRecord(
        f"main{k2}", k2, tuple(data["curves"]), data["det"], (), chains))
    ledger.add(sec, f"KSBA family dimension {data['ksba_dim']}",
               data["ksba_dim"] == 20 - 2 * k2)
    duval = tuple(tuple(ch) for ch in data["duval"])
    marked, why = None, "marking failed"
    try:
        plan = _plan_from_json(data.get("recovered_plan"))
        own = mark_chains(plan.execute(sub), [c.chain for c in chains])
        if own is not None:
            marked = MarkedSurface(plan.execute(a0), own.wahl_chains, duval)
    except (PlanError, ConfigurationError, AssemblyError) as exc:
        why = str(exc)
    if marked is None:
        ledger.add(sec, "recovered plan replays", False, why)
        return
    ledger.add(sec, "recovered plan replays", True, f"{len(plan.steps)} blow-ups")
    if k2 == 7:
        _verify_meridian_anchors(ledger, sec, marked)
    _certify(ledger, sec, k2, surface_report(marked, sub))


def _verify_meridian_anchors(ledger: Ledger, sec: str, marked: MarkedSurface) -> None:
    """The two anchored loop exponents of the long K^2=7 chain."""
    long_chain, entries = max(zip(marked.wahl_chains, marked.strings),
                              key=lambda item: len(item[0]))
    exps = meridian_exponents(entries[::-1])[::-1]  # generator at the first curve
    spots = {}
    for name, exp in zip(long_chain, exps):
        if name in ("F3", "F11"):
            spots[name] = exp
    ok = spots.get("F3") == 9 and spots.get("F11") == 307
    ledger.add(sec, "meridian exponents 9 and 307 anchored", ok,
               f"F3 -> {spots.get('F3')}, F11 -> {spots.get('F11')} "
               f"(positions {[long_chain.index(n) + 1 for n in spots]})")

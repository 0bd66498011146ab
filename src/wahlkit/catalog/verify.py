"""The verification ledger: every numeric claim of the catalog re-checked.

Each assertion becomes one pass/fail line: chain recognition, restriction
matrices and determinants, log-geography identities, obstruction
dimensions, T-joins and wormhole compositions, and (where a blow-up plan
is known or recoverable) the full surface certificates.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from ..chains import (CyclicQuotient, blow_down_compose, length_bound,
                      meridian_exponents, t_singularity, wahl_singularity)
from ..configuration import Configuration, det_exact, geography_check
from ..assembly import (MarkedSurface, k_squared, nef_ample_check, obstruction_dim,
                        pi1_verdict, singularity_report)
from ..plans import BlowupPlan, PlanStep, infer_plan, mark_chains
from .a0 import A0Constraints, CatalogError, frozen_a0
from .records import ChainSpec, SurfaceRecord, parse_records_file

__all__ = ["Check", "Ledger", "load_records", "load_expected",
           "ledger_constraints", "verify_all", "REQUIRED_INFERENCE"]

# records whose plan inference must succeed for the suite to pass
REQUIRED_INFERENCE = ("2.1", "2.2")


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
    return parse_records_file(text)


def load_expected(path: Optional[str] = None) -> dict:
    text = Path(path).read_text(encoding="utf-8") if path else _data_text("expected.json")
    return json.loads(text)


def ledger_constraints(expected: dict,
                       records: Sequence[SurfaceRecord]) -> A0Constraints:
    """Everything the catalog data pins down about the big configuration."""
    cons = A0Constraints()
    for data in expected["mains"].values():
        cons.matrices.append((tuple(data["curves"]), data["matrix"]))
        sections_in = [c for c in data["curves"] if c[0] in "AD"]
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


def _check_chain(ledger: Ledger, section: str, spec: ChainSpec) -> bool:
    sing = wahl_singularity(spec.chain)
    if sing is None:
        ledger.add(section, f"chain {list(spec.chain)} is a Wahl chain", False)
        return False
    exact = (sing.n, sing.a) == (spec.n, spec.a)
    ok = sing.n == spec.n and spec.a in (sing.a, sing.n - sing.a)
    how = "as printed" if exact else f"reversed orientation (a={sing.a})"
    ledger.add(section, f"chain of ({spec.n},{spec.a}) recognized", ok, how)
    return ok


def verify_all(a0: Optional[Configuration] = None,
               records: Optional[Sequence[SurfaceRecord]] = None,
               expected: Optional[dict] = None,
               infer_budget: int = 300000,
               with_inference: bool = True) -> Ledger:
    """Run the complete ledger; failures are report entries, not errors."""
    ledger = Ledger()
    a0 = a0 if a0 is not None else frozen_a0()
    records = list(records) if records is not None else load_records()
    expected = expected if expected is not None else load_expected()

    _verify_a0(ledger, a0, expected, records)
    for record in records:
        _verify_record(ledger, a0, record, with_inference, infer_budget)
    _verify_tjoins(ledger, expected, records)
    _verify_wormholes(ledger, expected, records)
    for k2s, data in sorted(expected["mains"].items(), key=lambda kv: int(kv[0])):
        _verify_main(ledger, a0, int(k2s), data)
    return ledger


def _verify_a0(ledger: Ledger, a0: Configuration, expected: dict,
               records: Sequence[SurfaceRecord]) -> None:
    sec = "A0"
    want = expected["a0"]
    ledger.add(sec, "curve count", a0.r == want["r"], f"r={a0.r}")
    ledger.add(sec, "node count", a0.t2 == want["t2"], f"t2={a0.t2}")
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
        got = a0.intersection_matrix(order)
        bad = [(order[i], order[j]) for i in range(len(order))
               for j in range(len(order)) if got[i][j] != matrix[i][j]]
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


def _verify_record(ledger: Ledger, a0: Configuration, record: SurfaceRecord,
                   with_inference: bool, infer_budget: int) -> None:
    sec = f"record ({record.rid})"
    for spec in record.chains:
        _check_chain(ledger, sec, spec)
    bound = length_bound("K3", record.k2)
    ledger.add(sec, f"length bound l <= {bound}",
               all(len(c.chain) <= bound for c in record.chains),
               f"lengths {[len(c.chain) for c in record.chains]}")
    sub = a0.restrict(record.curves)
    det = det_exact(sub.intersection_matrix())
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
    ledger.add(sec, f"family dimension {20 - 2 * record.k2}",
               obs == 0 and geo.admissible)
    if not with_inference:
        return
    result = infer_plan(record, sub, max_states=infer_budget)
    required = record.rid in REQUIRED_INFERENCE
    if result.success:
        report = result.report
        ledger.add(sec, "plan inference", True,
                   f"{result.states} states; K^2={report.k2}, "
                   f"{report.ample.status}"
                   f"{' (canonical model ample)' if report.ample.canonical_ample else ''}")
        ledger.add(sec, "inferred surface certified",
                   report.k2 == record.k2 and report.ample.canonical_ample
                   and report.obstruction == 0,
                   f"pi1 {report.pi1.status}")
    else:
        ledger.add(sec, "plan inference", not required,
                   "ambiguity report: " + "; ".join(result.near_misses[:2]))


def _record_chain(records: Sequence[SurfaceRecord], rid: str) -> SurfaceRecord:
    for record in records:
        if record.rid == rid:
            return record
    raise CatalogError(f"record ({rid}) not in catalog")


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
        first, second = record.chains
        same = first.chain == second.chain
        ledger.add(sec, "record repeats one chain", same,
                   f"(n,a)=({n},{a})")
        cq = blow_down_compose(first.chain, second.chain)
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
        got = []
        try:
            for rid in (rid1, rid2):
                record = _record_chain(records, rid)
                first, second = record.chains
                got.append(blow_down_compose(first.chain, second.chain))
        except CatalogError as exc:
            ledger.add(sec, "records present", False, str(exc))
            continue
        ledger.add(sec, f"both compose to 1/{wh['m']}(1,{wh['q']})",
                   got[0] == got[1] == want,
                   f"got {got[0]} and {got[1]}")


def _plan_from_json(steps: list) -> BlowupPlan:
    return BlowupPlan(tuple(PlanStep(a, b, occ) for a, b, occ in steps))


def _verify_main(ledger: Ledger, a0: Configuration, k2: int, data: dict) -> None:
    sec = f"main K^2={k2}"
    chains = [ChainSpec(c["n"], c["a"], tuple(c["chain"])) for c in data["chains"]]
    for spec in chains:
        _check_chain(ledger, sec, spec)
    bound = length_bound("K3", k2)
    ledger.add(sec, f"length bound l <= {bound}",
               all(len(c.chain) <= bound for c in chains),
               f"lengths {[len(c.chain) for c in chains]}")
    sub = a0.restrict(data["curves"])
    det = det_exact(sub.intersection_matrix())
    ledger.add(sec, f"determinant {data['det']}", det == data["det"], f"got {det}")
    p, k = sub.pk_invariants()
    geo = geography_check(len(chains), k2)
    c1, c2 = sub.log_chern()
    ledger.add(sec, "geography identities",
               p == len(chains) and k == k2 and sub.r == geo.r and
               sub.t2 == geo.t2 and c1 == 2 * k2 and c2 == 24 - p - k2 and
               geo.admissible,
               f"P={p} K={k} r={sub.r} t2={sub.t2}")
    obs = obstruction_dim(sub)
    ledger.add(sec, "no local-to-global obstruction", obs == 0, f"dim={obs}")
    ledger.add(sec, f"KSBA family dimension {data['ksba_dim']}",
               data["ksba_dim"] == 20 - 2 * k2)
    duval = [tuple(ch) for ch in data["duval"]]
    duval_ok = True
    for chain in duval:
        for name in chain:
            if a0.curve(name).self_int != -2:
                duval_ok = False
        for left, right in zip(chain, chain[1:]):
            if a0.pairing(left, right) != 1:
                duval_ok = False
        for name in chain:
            for other in data["curves"]:
                if a0.pairing(name, other) != 0:
                    duval_ok = False
    if duval:
        ledger.add(sec, "Du Val chains disjoint from the configuration",
                   duval_ok, f"{len(duval)} chains")

    plan_steps = data.get("recovered_plan")
    if not plan_steps:
        ledger.add(sec, "blow-up plan", True,
                   "not recovered within budget (figure-encoded); "
                   "certificates above are plan-independent")
        return
    witnesses = data.get("pi1_witnesses", [])
    extended = a0.restrict(list(data["curves"]) +
                           [c for ch in duval for c in ch] + list(witnesses))
    plan = _plan_from_json(plan_steps)
    surface = plan.execute(extended)
    marked = mark_chains(surface, [tuple(c.chain) for c in chains], ade=duval)
    if marked is None:
        ledger.add(sec, "recovered plan replays", False, "marking failed")
        return
    ledger.add(sec, "recovered plan replays", True, f"{len(plan.steps)} blow-ups")
    ledger.add(sec, f"K^2 = {k2} from the marking", k_squared(marked) == k2,
               f"got {k_squared(marked)}")
    sings = singularity_report(marked)
    got_wahl = sorted((e.wahl.n, min(e.wahl.a, e.wahl.n - e.wahl.a))
                      for e in sings if e.kind == "wahl")
    want_wahl = sorted((c.n, min(c.a, c.n - c.a)) for c in chains)
    got_ade = sorted(e.ade_k for e in sings if e.kind == "ade")
    want_ade = sorted(len(ch) for ch in duval)
    ledger.add(sec, "singularity list matches", got_wahl == want_wahl and
               got_ade == want_ade,
               ", ".join(str(e) for e in sings))
    amp = nef_ample_check(marked)
    ledger.add(sec, "canonical class ample", amp.canonical_ample, amp.status)
    pi1 = pi1_verdict(marked)
    ledger.add(sec, "fundamental group trivial", pi1.status == "trivial",
               f"{pi1.status}: {pi1.justification}")
    if k2 == 7:
        _verify_meridian_anchors(ledger, sec, marked)


def _verify_meridian_anchors(ledger: Ledger, sec: str, marked: MarkedSurface) -> None:
    """The two anchored loop exponents of the long K^2=7 chain."""
    long_chain = max(marked.wahl_chains, key=len)
    entries = [-marked.surface.curve(c).self_int for c in long_chain]
    exps = meridian_exponents(entries[::-1])[::-1]  # generator at the first curve
    spots = {}
    for name, exp in zip(long_chain, exps):
        if name in ("F3", "F11"):
            spots[name] = exp
    ok = spots.get("F3") == 9 and spots.get("F11") == 307
    ledger.add(sec, "meridian exponents 9 and 307 anchored", ok,
               f"F3 -> {spots.get('F3')}, F11 -> {spots.get('F11')} "
               f"(positions {[long_chain.index(n) + 1 for n in spots]})")

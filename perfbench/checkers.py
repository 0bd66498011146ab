"""Reference computations for the benchmark, made without wahlkit.

Everything here reads the catalog files directly (``a0.json``,
``records.txt``, ``expected.json``) and recomputes what the program claims:
continued fractions with ``Fraction``, determinants with ``sympy``, and a
plain curve/node blow-up replay.  Each checker returns a list of error
strings; an empty list means the output agrees.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import sympy

DATA = Path("src") / "wahlkit" / "catalog" / "data"


# -- catalog files -------------------------------------------------------------

class A0:
    """The frozen configuration as read from a0.json: curves and node pairs."""

    def __init__(self, path: Path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        self.self_int = {c["name"]: int(c["self_int"]) for c in payload["curves"]}
        self.nodes = [(a, b) for a, b in payload["nodes"]]

    def restrict(self, names) -> "Surface":
        keep = set(names)
        unknown = keep - set(self.self_int)
        if unknown:
            raise KeyError(f"unknown curves {sorted(unknown)}")
        return Surface({n: self.self_int[n] for n in names},
                       [(a, b) for a, b in self.nodes if a in keep and b in keep])


def restriction_det(a0: A0, names) -> int:
    """Exact determinant of the intersection matrix on the named curves."""
    surface = a0.restrict(names)
    names = list(names)
    matrix = [[surface.pairing(a, b) for b in names] for a in names]
    return int(sympy.Matrix(matrix).det(method="bareiss"))


_RECORD = re.compile(r"^\((?P<rid>\d+\.\d+)\) K\^2=(?P<k2>\d+)$")
_STEP = re.compile(r"^(?:\[(?P<pattern>[\d,\s]+)\]\s*(?:×|x)\s*)?"
                   r"(?P<a>[A-Z]\w*)\s*(?:∩|n)\s*(?P<b>[A-Z]\w*)$")
_CHAIN = re.compile(r"^\((?P<n>\d+),(?P<a>\d+)\):\[(?P<entries>[\d,\s]+)\]$")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in re.split(r"[,\s]+", text.strip()) if t)


def _split_steps(text: str) -> list[str]:
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += ch == "["
        depth -= ch == "]"
        if ch == "," and depth == 0:
            items.append(text[start:i].strip())
            start = i + 1
    items.append(text[start:].strip())
    return [item for item in items if item]


def parse_record_line(line: str) -> dict:
    """One record line of the catalog grammar, as a plain dict.

    Sections are separated by " - "; bracket groups never contain one.
    """
    head, curves, det, steps, *chains = line.strip().split(" - ")
    hm = _RECORD.match(head.strip())
    if hm is None or not chains:
        raise ValueError(f"unreadable record {line[:40]!r}")
    parsed_steps = []
    for item in _split_steps(steps):
        sm = _STEP.match(item)
        if sm is None:
            raise ValueError(f"unreadable step {item!r}")
        pattern = _ints(sm["pattern"]) if sm["pattern"] else None
        parsed_steps.append((sm["a"], sm["b"], pattern))
    parsed_chains = []
    for text in chains:
        cm = _CHAIN.match(text.strip())
        if cm is None:
            raise ValueError(f"unreadable chain {text!r}")
        parsed_chains.append((int(cm["n"]), int(cm["a"]), _ints(cm["entries"])))
    return {"rid": hm["rid"], "k2": int(hm["k2"]),
            "curves": tuple(n.strip() for n in curves.strip()[1:-1].split(",")),
            "det": int(det.strip()[len("det="):]),
            "steps": parsed_steps, "chains": parsed_chains}


def blowup_count(record: dict) -> int:
    """Blow-ups a record's steps perform: a bracket pattern counts its length."""
    return sum(len(p) if p is not None else 1 for _, _, p in record["steps"])


class Catalog:
    """The three bundled catalog files, read under the checkout root."""

    def __init__(self, root: Path):
        data = root / DATA
        self.a0 = A0(data / "a0.json")
        self.records = {}
        for line in (data / "records.txt").read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.lstrip().startswith("#"):
                record = parse_record_line(line)
                self.records[record["rid"]] = record
        self.expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))
        self._dets: dict[tuple[str, ...], int] = {}

    def det(self, names) -> int:
        """restriction_det on a0.json, computed once per curve set."""
        key = tuple(names)
        if key not in self._dets:
            self._dets[key] = restriction_det(self.a0, key)
        return self._dets[key]

    def main_record(self, k2: int) -> dict:
        """A main construction of expected.json in record form, with no steps."""
        data = self.expected["mains"][str(k2)]
        return {"rid": f"main{k2}", "k2": k2, "curves": tuple(data["curves"]),
                "det": data["det"], "steps": [],
                "chains": [(c["n"], c["a"], tuple(c["chain"])) for c in data["chains"]]}


# -- chain calculus --------------------------------------------------------------

def continued_fraction(chain) -> Fraction:
    """b_1 - 1/(b_2 - 1/(... - 1/b_l)), evaluated from the innermost entry."""
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - 1 / value
    return value


def check_wahl(n: int, a: int, chain) -> list[str]:
    """The chain evaluates to n^2 / (na - 1), so it is the stated Wahl chain."""
    if not chain or any(b < 2 for b in chain):
        return [f"chain {list(chain)} has an entry below 2"]
    value = continued_fraction(chain)
    if (value.numerator, value.denominator) != (n * n, n * a - 1):
        return [f"chain {list(chain)} = {value}, not {n * n}/{n * a - 1}"]
    return []


# -- blow-up replay ----------------------------------------------------------------

class Surface:
    """Curves with self-intersections plus an ordered list of node pairs."""

    def __init__(self, self_int: dict, nodes: list):
        self.self_int = dict(self_int)
        self.nodes = list(nodes)
        self.blowups = 0

    def between(self, a: str, b: str) -> list[int]:
        """Positions of the nodes joining a and b, in node order."""
        return [i for i, (x, y) in enumerate(self.nodes) if {x, y} == {a, b}]

    def pairing(self, a: str, b: str) -> int:
        if a == b:
            return self.self_int[a]
        return len(self.between(a, b))

    def blow_up(self, a: str, b: str, occurrence: int) -> None:
        """Blow up the occurrence-th node joining a and b.

        The node leaves the list and the new (-1)-curve E<k> meets each
        branch once; its two nodes go to the end, first the one with the
        node's first curve.
        """
        hits = self.between(a, b)
        if occurrence >= len(hits):
            raise ValueError(f"no node #{occurrence} between {a} and {b}")
        x, y = self.nodes.pop(hits[occurrence])
        self.blowups += 1
        exc = f"E{self.blowups}"
        if exc in self.self_int:
            raise ValueError(f"curve {exc} already exists")
        self.self_int[x] -= 1
        self.self_int[y] -= 1
        self.self_int[exc] = -1
        self.nodes += [(exc, x), (exc, y)]


def replay(a0: A0, curves, plan) -> Surface:
    """Execute a plan, a list of (a, b, occurrence) steps, on the restriction."""
    surface = a0.restrict(curves)
    for a, b, occurrence in plan:
        surface.blow_up(a, b, occurrence)
    return surface


def _canonical(entries) -> tuple[int, ...]:
    entries = tuple(entries)
    return min(entries, entries[::-1])


def check_inference(a0: A0, record: dict, out: dict) -> list[str]:
    """A plan inferred for a record carries the stated chains and certificates.

    ``out`` holds the plan steps, the marked Wahl chains (curve names) and
    the report fields of the program's result.
    """
    errors = []
    stated = record["chains"]
    want_blowups = sum(len(c) for _, _, c in stated) - record["k2"]
    if len(out["plan"]) != want_blowups:
        errors.append(f"{len(out['plan'])} blow-ups, K^2 forces {want_blowups}")
    try:
        surface = replay(a0, record["curves"], out["plan"])
    except (KeyError, ValueError) as exc:
        return errors + [f"plan does not replay: {exc}"]
    chains = out["marked"]
    names = [c for chain in chains for c in chain]
    if len(set(names)) != len(names):
        errors.append("a curve is marked twice")
    unknown = [c for c in names if c not in surface.self_int]
    if unknown:
        return errors + [f"marked curves {unknown} are not on the surface"]
    strings = [tuple(-surface.self_int[c] for c in chain) for chain in chains]
    if sorted(map(_canonical, strings)) != sorted(_canonical(c) for _, _, c in stated):
        errors.append(f"marked strings {strings} are not the stated chains")
    for chain in chains:
        for i, u in enumerate(chain):
            for j in range(i + 1, len(chain)):
                meets = surface.pairing(u, chain[j])
                if meets != (1 if j == i + 1 else 0):
                    errors.append(f"chain curves {u},{chain[j]} meet {meets} times")
    for i, first in enumerate(chains):
        for second in chains[i + 1:]:
            if any(surface.pairing(u, v) for u in first for v in second):
                errors.append(f"chains {first} and {second} meet")
    if out["k2"] != record["k2"]:
        errors.append(f"report K^2={out['k2']}, record K^2={record['k2']}")
    if not out["canonical_ample"]:
        errors.append("report does not certify canonical_ample")
    if out["obstruction"] != 0:
        errors.append(f"report obstruction {out['obstruction']}")
    return errors


# -- workload outputs -----------------------------------------------------------------

def check_ledger(catalog: Catalog, payload: dict) -> list[str]:
    """`wahlkit verify --format json`: all checks pass, every determinant the
    ledger reports is the sympy determinant, every inference reports the
    record's own K^2."""
    errors = []
    checks = payload["checks"]
    if not payload["ok"] or payload["passed"] != payload["total"] \
            or payload["total"] != len(checks):
        errors.append(f"ledger ok={payload['ok']} passed {payload['passed']}"
                      f"/{payload['total']} of {len(checks)} listed")
    dets = inferences = 0
    for check in checks:
        section, name, detail = check["section"], check["name"], check["detail"]
        rm = re.match(r"^record \((\d+\.\d+)\)$", section)
        mm = re.match(r"^main K\^2=(\d+)$", section)
        if rm:
            record = catalog.records.get(rm.group(1))
        elif mm:
            record = catalog.main_record(int(mm.group(1)))
        else:
            continue
        if record is None:
            errors.append(f"{section}: not in the catalog")
            continue
        if name.startswith("determinant "):
            dets += 1
            got = re.fullmatch(r"got (-?\d+)", detail)
            want = catalog.det(record["curves"])
            if got is None or int(got.group(1)) != want:
                errors.append(f"{section}: ledger says {detail!r}, sympy gives {want}")
        if name == "plan inference":
            inferences += 1
            got = re.search(r"K\^2=(\d+)", detail)
            if got is None or int(got.group(1)) != record["k2"]:
                errors.append(f"{section}: inference reports {detail!r}, "
                              f"record K^2={record['k2']}")
    want_dets = len(catalog.records) + len(catalog.expected["mains"])
    if dets != want_dets:
        errors.append(f"{dets} determinant checks, catalog has {want_dets}")
    if inferences != len(catalog.records):
        errors.append(f"{inferences} plan inferences, catalog has {len(catalog.records)}")
    return errors


def check_search_record(catalog: Catalog, line: str, k2: int) -> list[str]:
    """One emitted record: Wahl chains, K^2 from the steps, the determinant."""
    try:
        record = parse_record_line(line)
    except ValueError as exc:
        return [str(exc)]
    errors = []
    for n, a, chain in record["chains"]:
        errors += check_wahl(n, a, chain)
    got_k2 = sum(len(c) for _, _, c in record["chains"]) - blowup_count(record)
    if got_k2 != k2 or record["k2"] != k2:
        errors.append(f"({record['rid']}) K^2 {record['k2']}, chains and steps give {got_k2}")
    try:
        want = catalog.det(record["curves"])
    except KeyError as exc:
        want = f"no determinant: {exc}"
    if record["det"] != want:
        errors.append(f"({record['rid']}) det={record['det']}, sympy gives {want}")
    return [f"{line[:60]}...: {e}" for e in errors]


def singularities(record: dict) -> list[tuple[int, int]]:
    """Wahl singularities (n, a) up to orientation a <-> n - a."""
    return sorted((n, min(a, n - a)) for n, a, _ in record["chains"])


def check_search(catalog: Catalog, payload: dict, k2: int, target: str) -> list[str]:
    """`wahlkit search --format json`: every record is sound and the catalog
    record `target` is among them, matched by curve set and singularities."""
    errors = []
    want = catalog.records[target]
    found = False
    for line in payload["records"]:
        errors += check_search_record(catalog, line, k2)
        try:
            record = parse_record_line(line)
        except ValueError:
            continue
        found |= (set(record["curves"]) == set(want["curves"])
                  and singularities(record) == singularities(want))
    if not found:
        errors.append(f"record ({target}) not rediscovered among "
                      f"{len(payload['records'])} records")
    return errors

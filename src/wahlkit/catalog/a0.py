"""The extremal configuration A0: two 8-cycles, four doubly-meeting pairs,
eight pairwise-disjoint sections, every section meeting one component of
each fiber exactly once.

The skeleton (every curve, and every node but the section incidences) is
stated once, in `_model`.  Which component a section meets is not fixed a
priori: it is recovered by constraint search (reconstruct_a0) from the
printed restriction matrices, the record determinants, and
incidence/disjointness facts, then frozen into the shipped a0.json.  The
ledger (wahlkit.catalog.verify) checks the frozen model: it compares it
with the skeleton rebuilt from its own incidences, then re-checks every
printed constraint.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterator, Optional

from ..configuration import (Configuration, ConfigurationError, _pair, det_exact,
                             rank_exact)

__all__ = [
    "FIBERS", "SECTIONS", "COMPONENTS", "CatalogError",
    "A0Constraints", "ReconstructionResult",
    "build_a0", "reconstruct_a0", "load_a0", "frozen_a0", "incidences_of",
]

FIBERS: dict[str, tuple[str, ...]] = {
    "I8A": tuple(f"F{i}" for i in range(1, 9)),
    "I8B": tuple(f"F{i}" for i in range(9, 17)),
    "B12": ("B1", "B2"),
    "B34": ("B3", "B4"),
    "C12": ("C1", "C2"),
    "C34": ("C3", "C4"),
}
SECTIONS: tuple[str, ...] = ("A1", "A2", "A3", "A4", "D1", "D2", "D3", "D4")
COMPONENTS: dict[str, str] = {c: f for f, comps in FIBERS.items() for c in comps}
EXPANSION_CAP = 20000  # reconstruct_a0 enumerates at most this many models


class CatalogError(ValueError):
    """Inconsistent catalog data (transcription error or failed validation)."""


def _model(incidence: dict[tuple[str, str], str]) -> Configuration:
    """The skeleton plus one node per (section, fiber) -> component entry of
    `incidence`, which may be partial; nodes come in build_a0's order."""
    curves = [(name, -2) for comps in FIBERS.values() for name in comps]
    curves += [(name, -2) for name in SECTIONS]
    nodes = []
    for cycle in (FIBERS["I8A"], FIBERS["I8B"]):
        nodes.extend((cycle[i], cycle[(i + 1) % 8]) for i in range(8))
    for pair in ("B12", "B34", "C12", "C34"):
        a, b = FIBERS[pair]
        nodes.extend([(a, b), (a, b)])
    nodes.extend((section, incidence[(section, fiber)])
                 for section in SECTIONS for fiber in FIBERS
                 if (section, fiber) in incidence)
    return Configuration.build(curves, nodes)


def build_a0(incidence: dict[tuple[str, str], str]) -> Configuration:
    """Assemble the 32-curve configuration from a full section incidence map.

    `incidence` maps (section, fiber) to the component the section meets.
    """
    for section in SECTIONS:
        for fiber in FIBERS:
            comp = incidence.get((section, fiber))
            if comp is None:
                raise CatalogError(f"incidence missing for ({section},{fiber})")
            if COMPONENTS.get(comp) != fiber:
                raise CatalogError(f"{comp} is not a component of {fiber}")
    return _model(incidence)


def incidences_of(config: Configuration) -> dict[tuple[str, str], str]:
    """Read the (section, fiber) -> component map back off a configuration.

    A section that misses a fiber has no entry for it; build_a0 of the map
    then names the missing cell.
    """
    out: dict[tuple[str, str], str] = {}
    for section in SECTIONS:
        for comp in sorted(config.neighbors(section)):
            fiber = COMPONENTS.get(comp)
            if fiber is None:
                raise CatalogError(f"section {section} meets non-fiber curve {comp}")
            if (section, fiber) in out:
                raise CatalogError(f"section {section} meets {fiber} twice")
            out[(section, fiber)] = comp
    return out


@dataclass
class A0Constraints:
    """Everything the printed ledger pins down about section incidences."""

    # (curve order, full matrix): entry-for-entry restriction constraints
    matrices: list[tuple[tuple[str, ...], list[list[int]]]] = field(default_factory=list)
    # (curve order, determinant): restriction determinant constraints
    determinants: list[tuple[tuple[str, ...], int]] = field(default_factory=list)
    # pairs that must meet (section-component) or must not
    incident: set[tuple[str, str]] = field(default_factory=set)
    disjoint: set[tuple[str, str]] = field(default_factory=set)

    def add_incident(self, a: str, b: str) -> None:
        self.incident.add(_pair(a, b))

    def add_disjoint(self, a: str, b: str) -> None:
        self.disjoint.add(_pair(a, b))


@dataclass
class ReconstructionResult:
    model: Configuration
    incidence: dict[tuple[str, str], str]
    solutions: int
    undetermined: dict[tuple[str, str], tuple[str, ...]]
    free_cells: tuple[tuple[str, str], ...]

    @property
    def unique(self) -> bool:
        return self.solutions == 1 and not self.undetermined and not self.free_cells


def _section_pair(a: str, b: str) -> Optional[tuple[str, str]]:
    """Orient (section, component) pairs; None if not such a pair."""
    if a in SECTIONS and b in COMPONENTS:
        return a, b
    if b in SECTIONS and a in COMPONENTS:
        return b, a
    return None


def reconstruct_a0(constraints: A0Constraints,
                   rank_cap: Optional[int] = 20) -> ReconstructionResult:
    """Search all section incidence maps satisfying the constraints.

    Matrix entries and incidence facts reduce to unary domain restrictions.
    Determinant constraints are checked as soon as every cell a record can
    see is decided; the values of a cell that lie in none of the orders its
    records see are searched as one class.

    One cap bounds the work.  When the classes found stand for at most
    EXPANSION_CAP incidence maps, they are all expanded: `solutions` counts
    the maps, and the cells on which they disagree are `undetermined`
    (those no determinant sees are also `free_cells`).  Past the cap the
    search stops, nothing is expanded and no open cell counts as decided:
    every cell with more than one value left after the unary constraints
    is undetermined, `solutions` counts the classes found before the search
    stopped, `model` is one map of the first of them, and `unique` is False.

    rank_cap is the ambient Picard bound (20 on a K3): candidate models
    whose full Gram matrix exceeds it cannot live on the surface and are
    filtered out once the maps are expanded.  Pass rank_cap=None to
    disable; past the cap it is not applied.
    """
    domains: dict[tuple[str, str], list[str]] = {
        (s, f): list(comps) for s in SECTIONS for f, comps in FIBERS.items()
    }
    skeleton = _model({})

    def fixed(a: str, b: str) -> Optional[int]:
        """The skeleton's a.b for two sections or two components, else None."""
        if a != b and ({a, b} <= COMPONENTS.keys() or {a, b} <= set(SECTIONS)):
            return skeleton.pairing(a, b)
        return None

    def restrict(section: str, comp: str, allowed: bool, why: str) -> None:
        fiber = COMPONENTS[comp]
        dom = domains[(section, fiber)]
        if allowed:
            if comp not in dom:
                raise CatalogError(f"unsatisfiable: {why} forces {section}.{comp} "
                                   f"but it was excluded")
            domains[(section, fiber)] = [comp]
        else:
            if comp in dom:
                dom.remove(comp)
            if not dom:
                raise CatalogError(f"unsatisfiable: {why} empties domain of "
                                   f"({section},{fiber})")

    # unary constraints from printed matrices
    for order, matrix in constraints.matrices:
        n = len(order)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise CatalogError(f"matrix shape mismatch for order {order}")
        for i in range(n):
            if matrix[i][i] != -2:
                raise CatalogError(f"matrix diagonal for {order[i]} is {matrix[i][i]}, "
                                   f"expected -2")
            for j in range(i + 1, n):
                a, b, entry = order[i], order[j], matrix[i][j]
                if matrix[j][i] != entry:
                    raise CatalogError(f"matrix not symmetric at ({a},{b})")
                value = fixed(a, b)
                pair = _section_pair(a, b)
                if value is not None:
                    if value != entry:
                        raise CatalogError(f"printed entry {a}.{b}={entry} contradicts "
                                           f"fibration value {value}")
                elif pair is not None:
                    if entry not in (0, 1):
                        raise CatalogError(f"section-fiber entry {a}.{b}={entry} invalid")
                    restrict(pair[0], pair[1], entry == 1, f"matrix entry {a}.{b}")
                else:
                    raise CatalogError(f"cannot interpret printed entry {a}.{b}")

    for a, b in sorted(constraints.incident):
        pair = _section_pair(a, b)
        if pair is not None:
            restrict(pair[0], pair[1], True, f"incidence {a}.{b}")
        elif fixed(a, b) in (0, None):
            raise CatalogError(f"required incidence {a}.{b} impossible in skeleton")
    for a, b in sorted(constraints.disjoint):
        pair = _section_pair(a, b)
        if pair is not None:
            restrict(pair[0], pair[1], False, f"disjointness {a}.{b}")
        elif fixed(a, b) not in (0, None):
            raise CatalogError(f"required disjointness {a}.{b} impossible in skeleton")

    # determinant constraints: variable cells each record can see
    det_jobs = []
    for order, det in constraints.determinants:
        fibers_in = {COMPONENTS[c] for c in order if c in COMPONENTS}
        support = {(s, f) for s in order if s in SECTIONS for f in fibers_in
                   if len(domains[(s, f)]) > 1}
        det_jobs.append((tuple(order), det, tuple(sorted(support))))

    relevant = sorted({cell for _, _, support in det_jobs for cell in support})
    base = {cell: dom[0] for cell, dom in domains.items() if len(dom) == 1}

    # a det job completes exactly when its last support cell is assigned
    position = {cell: i for i, cell in enumerate(relevant)}
    jobs_at: dict[int, list[int]] = {}
    for ji, (order, det, support) in enumerate(det_jobs):
        if support:
            jobs_at.setdefault(max(position[c] for c in support), []).append(ji)
        elif det_exact(_model(base).intersection_matrix(order)) != det:
            raise CatalogError(f"determinant {det} on {order} fails with the "
                               f"pinned incidences alone")

    # values outside every order a cell's jobs see are searched as one class
    classes: dict[tuple[str, str], list[list[str]]] = {}
    for cell in relevant:
        seen_jobs = [ji for ji, (_, _, support) in enumerate(det_jobs) if cell in support]
        buckets: dict[tuple[Optional[str], ...], list[str]] = {}
        for value in domains[cell]:
            key = tuple(value if value in det_jobs[ji][0] else None for ji in seen_jobs)
            buckets.setdefault(key, []).append(value)
        classes[cell] = sorted(buckets.values())

    multi = sorted(cell for cell, dom in domains.items() if len(dom) > 1)
    # every class stands for at least this many maps: the cells no record sees
    least = math.prod(len(domains[cell]) for cell in multi if cell not in position)
    solutions: list[dict[tuple[str, str], tuple[str, ...]]] = []

    def search(idx: int, assignment: dict) -> None:
        if len(solutions) * least > EXPANSION_CAP:
            return
        if idx == len(relevant):
            solutions.append(dict(assignment))
            return
        cell = relevant[idx]
        for members in classes[cell]:
            assignment[cell] = tuple(members)
            full = {**base, **{c: v[0] for c, v in assignment.items()}}
            if all(det_exact(_model(full).intersection_matrix(det_jobs[ji][0]))
                   == det_jobs[ji][1] for ji in jobs_at.get(idx, ())):
                search(idx + 1, assignment)
            del assignment[cell]

    search(0, {})
    if not solutions:
        raise CatalogError("constraint set unsatisfiable: no incidence model found")

    # expand class representatives and free cells into concrete maps
    def expand(sol: dict) -> Iterator[dict[tuple[str, str], str]]:
        for values in itertools.product(*(sol.get(cell, domains[cell]) for cell in multi)):
            yield {**base, **dict(zip(multi, values))}

    size = len(solutions) * math.prod(
        max(len(sol.get(cell, domains[cell])) for sol in solutions) for cell in multi)
    if size <= EXPANSION_CAP:
        candidates = [cand for sol in solutions for cand in expand(sol)]
        if rank_cap is not None:
            candidates = [c for c in candidates
                          if rank_exact(build_a0(c).intersection_matrix()) <= rank_cap]
            if not candidates:
                raise CatalogError(f"no candidate model has Gram rank <= {rank_cap}")
        count = len(candidates)
        left = {cell: {cand[cell] for cand in candidates} for cell in multi}
    else:
        candidates = [next(expand(solutions[0]))]
        count = len(solutions)
        left = {cell: domains[cell] for cell in multi}

    undetermined = {cell: tuple(sorted(values)) for cell, values in left.items()
                    if len(values) > 1}
    free = tuple(cell for cell in undetermined if cell not in position)
    chosen = min(candidates, key=lambda c: tuple(sorted(c.items())))
    return ReconstructionResult(build_a0(chosen), chosen, count, undetermined, free)


# -- frozen model -------------------------------------------------------------

def load_a0(path) -> Configuration:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return Configuration.from_json(text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def frozen_a0() -> Configuration:
    """The shipped, frozen incidence model."""
    text = resources.files("wahlkit.catalog").joinpath("data/a0.json").read_text()
    return Configuration.from_json(text)

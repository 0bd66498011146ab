"""The extremal configuration: two 8-cycles, four doubly-meeting pairs,
eight pairwise-disjoint sections, every section meeting one component of
each fiber exactly once.

Which component a section meets is not fixed a priori: it is recovered by
constraint search (reconstruct_a0) from the printed restriction matrices,
the record determinants, and incidence/disjointness facts, then frozen
into the shipped a0.json.  validate_a0 re-checks the frozen model against
every constraint.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from ..configuration import Configuration, det_exact, rank_exact

__all__ = [
    "FIBERS", "SECTIONS", "COMPONENTS", "CatalogError",
    "A0Constraints", "ReconstructionResult",
    "build_a0", "reconstruct_a0", "load_a0", "frozen_a0", "validate_a0",
    "incidences_of",
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
SOLUTION_CAP = 4096  # reconstruct_a0 stops after this many solutions
EXPANSION_CAP = 20000  # and expands them into incidence maps up to this many


class CatalogError(ValueError):
    """Inconsistent catalog data (transcription error or failed validation)."""


def _skeleton_nodes() -> list[tuple[str, str]]:
    nodes: list[tuple[str, str]] = []
    for cycle in (FIBERS["I8A"], FIBERS["I8B"]):
        nodes.extend((cycle[i], cycle[(i + 1) % 8]) for i in range(8))
    for pair in ("B12", "B34", "C12", "C34"):
        a, b = FIBERS[pair]
        nodes.extend([(a, b), (a, b)])
    return nodes


def build_a0(incidence: dict[tuple[str, str], str]) -> Configuration:
    """Assemble the 32-curve configuration from a full section incidence map.

    `incidence` maps (section, fiber) to the component the section meets.
    """
    curves = [(name, -2) for comps in FIBERS.values() for name in comps]
    curves += [(name, -2) for name in SECTIONS]
    nodes = _skeleton_nodes()
    for section in SECTIONS:
        for fiber in FIBERS:
            comp = incidence.get((section, fiber))
            if comp is None:
                raise CatalogError(f"incidence missing for ({section},{fiber})")
            if COMPONENTS.get(comp) != fiber:
                raise CatalogError(f"{comp} is not a component of {fiber}")
            nodes.append((section, comp))
    return Configuration.build(curves, nodes)


def incidences_of(config: Configuration) -> dict[tuple[str, str], str]:
    """Read the (section, fiber) -> component map back off a configuration."""
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
        self.incident.add((a, b) if a <= b else (b, a))

    def add_disjoint(self, a: str, b: str) -> None:
        self.disjoint.add((a, b) if a <= b else (b, a))


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


def _fixed_pairing(a: str, b: str) -> Optional[int]:
    """Skeleton intersection number for non-(section, component) pairs."""
    if a in SECTIONS and b in SECTIONS:
        return 0 if a != b else None
    fa, fb = COMPONENTS.get(a), COMPONENTS.get(b)
    if fa is None or fb is None or a == b:
        return None
    if fa != fb:
        return 0
    comps = FIBERS[fa]
    if len(comps) == 2:
        return 2
    i, j = comps.index(a), comps.index(b)
    return 1 if (i - j) % 8 in (1, 7) else 0


def reconstruct_a0(constraints: A0Constraints,
                   rank_cap: Optional[int] = 20) -> ReconstructionResult:
    """Search all section incidence maps satisfying the constraints.

    Matrix entries and incidence facts reduce to unary domain restrictions;
    determinant constraints are checked on the fly as soon as every cell a
    record can see is decided.  All solutions (to the cap) are enumerated;
    cells on which they disagree, and cells no constraint ever sees, are
    reported as undetermined rather than silently chosen.

    rank_cap is the ambient Picard bound (20 on a K3): candidate models
    whose full Gram matrix exceeds it cannot live on the surface and are
    filtered out at the end.  Pass rank_cap=None to disable.
    """
    domains: dict[tuple[str, str], list[str]] = {
        (s, f): list(comps) for s in SECTIONS for f, comps in FIBERS.items()
    }

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
                fixed = _fixed_pairing(a, b)
                pair = _section_pair(a, b)
                if fixed is not None:
                    if fixed != entry:
                        raise CatalogError(f"printed entry {a}.{b}={entry} contradicts "
                                           f"fibration value {fixed}")
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
        elif _fixed_pairing(a, b) in (0, None):
            raise CatalogError(f"required incidence {a}.{b} impossible in skeleton")
    for a, b in sorted(constraints.disjoint):
        pair = _section_pair(a, b)
        if pair is not None:
            restrict(pair[0], pair[1], False, f"disjointness {a}.{b}")
        elif _fixed_pairing(a, b) not in (0, None):
            raise CatalogError(f"required disjointness {a}.{b} impossible in skeleton")

    # determinant constraints: variable cells each record can see
    det_jobs = []
    for order, det in constraints.determinants:
        support = []
        comps_in = [c for c in order if c in COMPONENTS]
        for section in order:
            if section not in SECTIONS:
                continue
            for fiber in FIBERS:
                if any(COMPONENTS[c] == fiber for c in comps_in):
                    if len(domains[(section, fiber)]) > 1:
                        support.append((section, fiber))
        det_jobs.append((tuple(order), det, tuple(sorted(set(support)))))

    relevant = sorted({cell for _, _, support in det_jobs for cell in support})
    base = {cell: dom[0] for cell, dom in domains.items() if len(dom) == 1}

    def restriction_det(order: Sequence[str], assignment: dict) -> int:
        names = list(order)
        mat = [[0] * len(names) for _ in names]
        for i in range(len(names)):
            mat[i][i] = -2
        for i, a in enumerate(names):
            for j in range(i + 1, len(names)):
                b = names[j]
                fixed = _fixed_pairing(a, b)
                if fixed is not None:
                    val = fixed
                else:
                    pair = _section_pair(a, b)
                    if pair is None:
                        raise CatalogError(f"cannot interpret pair ({a},{b})")
                    section, comp = pair
                    val = 1 if assignment.get((section, COMPONENTS[comp])) == comp else 0
                mat[i][j] = mat[j][i] = val
        return det_exact(mat)

    # a det job completes exactly when its last support cell is assigned
    position = {cell: i for i, cell in enumerate(relevant)}
    jobs_at: dict[int, list[int]] = {}
    for ji, (order, det, support) in enumerate(det_jobs):
        if support:
            jobs_at.setdefault(max(position[c] for c in support), []).append(ji)
        elif restriction_det(order, base) != det:
            raise CatalogError(f"determinant {det} on {order} fails with the "
                               f"pinned incidences alone")

    # values a cell's jobs cannot distinguish are searched as one class
    classes: dict[tuple[str, str], list[list[str]]] = {}
    for cell in relevant:
        seen_jobs = [ji for ji, (_, _, support) in enumerate(det_jobs) if cell in support]
        buckets: dict[tuple[bool, ...], list[str]] = {}
        for value in domains[cell]:
            key = tuple(value in det_jobs[ji][0] for ji in seen_jobs)
            buckets.setdefault(key, []).append(value)
        classes[cell] = sorted(buckets.values())

    solutions: list[dict[tuple[str, str], tuple[str, ...]]] = []

    def search(idx: int, assignment: dict) -> None:
        if len(solutions) >= SOLUTION_CAP:
            return
        if idx == len(relevant):
            solutions.append(dict(assignment))
            return
        cell = relevant[idx]
        for members in classes[cell]:
            assignment[cell] = tuple(members)
            full = {**base, **{c: v[0] for c, v in assignment.items()}}
            if all(restriction_det(det_jobs[ji][0], full) == det_jobs[ji][1]
                   for ji in jobs_at.get(idx, ())):
                search(idx + 1, assignment)
            del assignment[cell]

    search(0, {})
    if not solutions:
        raise CatalogError("constraint set unsatisfiable: no incidence model found")

    # expand class representatives and free cells into concrete maps
    multi = sorted(cell for cell, dom in domains.items() if len(dom) > 1)
    candidates: list[dict[tuple[str, str], str]] = []
    size = len(solutions)
    for cell in multi:
        width = max((len(mem) for sol in solutions
                     for mem in [sol.get(cell, domains[cell])]), default=1)
        size *= max(width, 1)
    if size <= EXPANSION_CAP:
        for sol in solutions:
            maps = [dict(base)]
            for cell in multi:
                values = list(sol[cell]) if cell in sol else list(domains[cell])
                expanded = []
                for m in maps:
                    for v in values:
                        new = dict(m)
                        new[cell] = v
                        expanded.append(new)
                maps = expanded
            candidates.extend(maps)
        for cand in candidates:
            for cell, dom in domains.items():
                cand.setdefault(cell, dom[0])
        if rank_cap is not None:
            ranked = [c for c in candidates
                      if rank_exact(build_a0(c).intersection_matrix()) <= rank_cap]
            if ranked:
                candidates = ranked
            else:
                raise CatalogError(f"no candidate model has Gram rank <= {rank_cap}")
    else:
        # too many completions to expand: report class-level ambiguity only
        chosen = dict(base)
        chosen.update({cell: members[0] for cell, members in solutions[0].items()})
        for cell, dom in domains.items():
            chosen.setdefault(cell, dom[0])
        candidates = [chosen]

    undetermined: dict[tuple[str, str], tuple[str, ...]] = {}
    for cell in multi:
        values = sorted({cand[cell] for cand in candidates})
        if len(values) > 1:
            undetermined[cell] = tuple(values)
    free = tuple(sorted(cell for cell in multi
                        if cell not in relevant and cell in undetermined))

    chosen = min(candidates, key=lambda c: tuple(sorted(c.items())))
    model = build_a0(chosen)
    return ReconstructionResult(model, chosen, len(candidates), undetermined, free)


# -- frozen model -------------------------------------------------------------

def load_a0(path) -> Configuration:
    with open(path, encoding="utf-8") as fh:
        return Configuration.from_json(fh.read())


def frozen_a0() -> Configuration:
    """The shipped, frozen incidence model."""
    text = resources.files("wahlkit.catalog").joinpath("data/a0.json").read_text()
    return Configuration.from_json(text)


def validate_a0(config: Configuration, constraints: A0Constraints) -> list[str]:
    """Hard re-validation of a model against every printed constraint.

    Returns a list of human-readable check names; raises CatalogError naming
    the first offending entry on any mismatch.
    """
    checks: list[str] = []
    if config.r != 32:
        raise CatalogError(f"expected 32 curves, got {config.r}")
    if config.t2 != 72:
        raise CatalogError(f"expected 72 nodes, got {config.t2}")
    for curve in config.curves:
        if curve.self_int != -2:
            raise CatalogError(f"curve {curve.name} has self-intersection "
                               f"{curve.self_int}, expected -2")
    incidences_of(config)  # raises if a section misses/doubles a fiber
    for s in SECTIONS:
        for t in SECTIONS:
            if s < t and config.pairing(s, t) != 0:
                raise CatalogError(f"sections {s},{t} must be disjoint")
    checks.append("skeleton: 32 curves, 72 nodes, sections disjoint")
    for order, matrix in constraints.matrices:
        got = config.intersection_matrix(order)
        for i, row in enumerate(got):
            for j, val in enumerate(row):
                if val != matrix[i][j]:
                    raise CatalogError(f"matrix mismatch at ({order[i]},{order[j]}): "
                                       f"model {val}, printed {matrix[i][j]}")
        checks.append(f"printed matrix on {len(order)} curves reproduced")
    for order, det in constraints.determinants:
        got = det_exact(config.intersection_matrix(order))
        if got != det:
            raise CatalogError(f"determinant mismatch on {order}: "
                               f"model {got}, stated {det}")
        checks.append(f"det {det} on {{{', '.join(order)}}}")
    for a, b in sorted(constraints.incident):
        if config.pairing(a, b) < 1:
            raise CatalogError(f"required incidence {a}.{b} missing")
    for a, b in sorted(constraints.disjoint):
        if config.pairing(a, b) != 0:
            raise CatalogError(f"required disjointness {a}.{b} violated")
    checks.append("incidence and disjointness facts hold")
    return checks

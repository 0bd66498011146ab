"""Marked surfaces: chain marking, K^2, nef/ample certification,
obstruction dimension, singularity reports and fundamental-group verdicts.

A MarkedSurface is a blown-up configuration together with the Wahl chains
to be contracted, the chains of (-2)-curves contracted to rational double
points, and everything else left alone.  One validator checks the marking
rules, stated on MarkedSurface: among them, the marked chains are pairwise
disjoint, ADE chains included.  All certificates work through
exact discrepancy sums; nothing here ever reports more than the underlying
sufficiency criteria allow (in particular the fundamental-group verdict is
never "nontrivial").
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

from .chains import (CyclicQuotient, TSingularity, WahlSingularity, blow_down_compose,
                     discrepancies, meridian_exponents, recognize_wahl, t_singularity)
from .configuration import Configuration, det_exact

__all__ = [
    "AssemblyError", "MarkedSurface", "Witness", "NefAmpleReport",
    "SingularityEntry", "Pi1Report", "SurfaceReport",
    "k_squared", "nef_ample_check", "obstruction_dim",
    "singularity_report", "pi1_verdict", "surface_report",
]


class AssemblyError(ValueError):
    """Malformed marking: chains that are not chains, overlaps, bad types."""


@dataclass(frozen=True)
class MarkedSurface:
    """A configuration with its marking.

    The marking rules: every chain is nonempty and no curve is marked
    twice; a Wahl chain's curves carry a Wahl string, an ADE chain's are
    all (-2)-curves; consecutive curves of a chain share exactly one node,
    and no other node joins two marked curves.  So no marked curve has a
    self-node, and the chains, Wahl and ADE alike, are pairwise disjoint.
    """

    surface: Configuration
    wahl_chains: tuple[tuple[str, ...], ...]
    ade_chains: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        self._validate()

    @property
    def blowup_count(self) -> int:
        return self.surface.blowup_count

    @cached_property
    def chain_index(self) -> dict[str, int]:
        """Each Wahl chain curve -> the index of its chain."""
        return {c: i for i, ch in enumerate(self.wahl_chains) for c in ch}

    @cached_property
    def strings(self) -> tuple[tuple[int, ...], ...]:
        """The entries (negated self-intersections) of each Wahl chain."""
        return tuple(tuple(-s for s in self.surface.self_ints(chain))
                     for chain in self.wahl_chains)

    def wahl_data(self) -> tuple[WahlSingularity, ...]:
        """Each Wahl chain's singularity, recognized once by `_validate`."""
        return self._wahl_data

    def _validate(self) -> None:
        """Check the marking rules in one pass over the nodes, keeping each
        Wahl chain's singularity for `wahl_data`."""
        chains = self.wahl_chains + self.ade_chains
        place: dict[str, tuple[int, int]] = {}  # marked curve -> (chain, position)
        for i, chain in enumerate(chains):
            if not chain:
                raise AssemblyError("empty chain in marking")
            for k, name in enumerate(chain):
                if name in place:
                    raise AssemblyError(f"curve {name} marked twice")
                place[name] = (i, k)
        data = []
        for chain, entries in zip(self.wahl_chains, self.strings):
            sing = recognize_wahl(entries)
            if sing is None:
                raise AssemblyError(f"marked chain {chain} has string {list(entries)}, "
                                    f"not a Wahl chain")
            data.append(sing)
        object.__setattr__(self, "_wahl_data", tuple(data))  # not a field
        for chain in self.ade_chains:
            bad = [c for c, s in zip(chain, self.surface.self_ints(chain)) if s != -2]
            if bad:
                raise AssemblyError(f"ADE chain member {bad[0]} is not a (-2)-curve; "
                                    f"only A_k chains of (-2)-curves are supported")
        links: Counter = Counter()  # (chain, position) -> nodes to the next curve
        for node in self.surface.nodes:
            if node.a in place and node.b in place:
                (i, k), (j, m) = place[node.a], place[node.b]
                if i != j or abs(k - m) != 1:
                    raise AssemblyError(f"marked curves {node.a},{node.b} meet but are "
                                        f"not consecutive in one chain")
                links[i, min(k, m)] += 1
        for i, chain in enumerate(chains):
            for k in range(len(chain) - 1):
                if links[i, k] != 1:
                    raise AssemblyError(f"consecutive chain curves {chain[k]},"
                                        f"{chain[k + 1]} must share exactly one node")


def _paths(names: Sequence[str], meets: Counter) -> Optional[list[tuple[str, ...]]]:
    """The components of the graph on `names` (sorted) as paths, or None.

    The edges are the nodes that `meets` counts by curve pair, ordered as
    `_pair` orders it, between two of the curves; the other nodes are left
    out.  A component fails if it is no simple path: a self-node, a pair
    meeting twice, a branch point or a cycle.  Each path starts at its
    lexicographically smaller end, and the paths come in the order of their
    components' first curves in `names`.
    """
    adjacency: dict[str, list[str]] = {name: [] for name in names}
    for (a, b), count in meets.items():
        if a in adjacency and b in adjacency:
            if a == b or count > 1:
                return None
            adjacency[a].append(b)
            adjacency[b].append(a)
    if any(len(adjacent) > 2 for adjacent in adjacency.values()):
        return None
    seen: set[str] = set()
    paths = []
    for name in names:
        if name in seen:
            continue
        comp = {name}
        frontier = [name]
        while frontier:
            cur = frontier.pop()
            for nxt in adjacency[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        ends = [n for n in comp if len(adjacency[n]) <= 1]
        if not ends:
            return None
        # every curve meets at most two others, so the walk never branches
        path = [min(ends)]
        while len(path) < len(comp):
            path += [x for x in adjacency[path[-1]] if x not in path]
        paths.append(tuple(path))
    return paths


def _contract_to_rdps(surface: Configuration, names: Sequence[str]) -> bool:
    """Whether the (-2)-curves `names` contract to rational double points:
    none has a self-node and their intersection matrix M is negative
    definite (Artin), so each component is an ADE Dynkin tree.  Disjoint
    simple paths (A_k, `_paths`) pass without the matrix; otherwise every
    leading principal minor of -M must be positive (Sylvester)."""
    if _paths(names, surface.meets) is not None:
        return True
    if any(surface.meets[name, name] for name in names):
        return False
    neg = [[-x for x in row] for row in surface.intersection_matrix(names)]
    return all(det_exact([row[:k] for row in neg[:k]]) > 0 for k in range(1, len(neg) + 1))


def k_squared(ms: MarkedSurface) -> int:
    """K_X^2 of the contracted surface: -#blow-ups + sum of chain lengths."""
    return -ms.blowup_count + sum(len(c) for c in ms.wahl_chains)


@dataclass(frozen=True)
class Witness:
    kind: str
    curve: str
    detail: str


@dataclass(frozen=True)
class Contraction:
    curve: str
    result: Optional[CyclicQuotient]
    t_type: Optional[TSingularity]


@dataclass(frozen=True)
class NefAmpleReport:
    status: str  # "ample" | "nef-only" | "not-nef"
    witnesses: tuple[Witness, ...] = ()
    warnings: tuple[Witness, ...] = ()
    contractions: tuple[Contraction, ...] = ()

    @property
    def canonical_ample(self) -> bool:
        """Ample after passing to the canonical model.

        A nef-only verdict still certifies the canonical model when K^2 is
        positive and every zero curve is contractible there: equality
        (-1)-curves joining two chain ends (their contraction is a
        T-singularity) and stray (-2)-curves that contract, with the ADE
        chains they meet, to rational double points.  The warnings of
        `nef_ample_check` name the cases that fail: K^2 not positive, stray
        curves that do not contract so.
        """
        if self.status == "ample":
            return True
        if self.status != "nef-only":
            return False
        if any(w.kind in ("k-squared", "zero-curves-not-ade") for w in self.warnings):
            return False
        return all(c.t_type is not None for c in self.contractions)


def _discrepancy_table(ms: MarkedSurface) -> dict[str, Fraction]:
    table: dict[str, Fraction] = {}
    for chain, entries in zip(ms.wahl_chains, ms.strings):
        for name, d in zip(chain, discrepancies(entries)):
            table[name] = d
    return table


def nef_ample_check(ms: MarkedSurface) -> NefAmpleReport:
    """Certify the contracted canonical class through discrepancy sums.

    For each (-1)-curve G the sum s(G) of the discrepancies of the Wahl
    chain curves it meets (with node multiplicity) must be <= -1 for nef
    and < -1 for ample; ample additionally needs K^2 > 0 and no stray
    (-2)-curve away from the chains.  The canonical model contracts those
    stray curves, together with the ADE chains they meet, to rational
    double points: a warning names them when they cannot be
    (`_contract_to_rdps`), as a cycle of (-2)-curves, two meeting twice, a
    nodal one or a tree that is not Dynkin.
    """
    surface = ms.surface
    chain_index = ms.chain_index
    marked = set(chain_index) | {c for ch in ms.ade_chains for c in ch}
    table = _discrepancy_table(ms)

    witnesses: list[Witness] = []
    contractions: list[Contraction] = []
    for curve in surface.curves:
        if curve.name in marked:
            continue
        if curve.self_int not in (-1, -2):
            return NefAmpleReport("not-nef", (Witness(
                "bad-free-curve", curve.name,
                f"unmarked curve with self-intersection {curve.self_int}"),))

    strict = True
    for curve in surface.curves:
        if curve.self_int != -1 or curve.name in marked:
            continue
        meets: list[str] = []
        s = Fraction(0)
        for other, k in surface.neighbors(curve.name).items():
            if other in table:
                s += k * table[other]
                meets += [other] * k
        if s > -1:
            witnesses.append(Witness("negative-curve", curve.name,
                                     f"discrepancy sum {s} > -1"))
        elif s == -1:
            strict = False
            contractions.append(_contraction_for(ms, curve.name, meets))

    if witnesses:
        return NefAmpleReport("not-nef", tuple(witnesses))

    zero_curves: list[Witness] = []
    for curve in surface.curves:
        if curve.self_int != -2 or curve.name in marked:
            continue
        touches_wahl = any(n in chain_index for n in surface.neighbors(curve.name))
        if touches_wahl:
            continue
        touches_exc = any(surface.self_int[n] == -1 for n in surface.neighbors(curve.name))
        kind = "free-two-meets-exceptional" if touches_exc else "free-two-isolated"
        zero_curves.append(Witness(kind, curve.name,
                                   "(-2)-curve away from every Wahl chain is a zero "
                                   "curve for the contracted canonical class"))

    k2 = k_squared(ms)
    if strict and not zero_curves and k2 > 0:
        return NefAmpleReport("ample", (), (), tuple(contractions))
    notes = list(zero_curves)
    contracted = [w.curve for w in zero_curves] + [c for ch in ms.ade_chains for c in ch]
    if zero_curves and not _contract_to_rdps(surface, contracted):
        notes.append(Witness("zero-curves-not-ade", "-", "the stray (-2)-curves and the "
                             "ADE chains do not contract to rational double points"))
    if k2 <= 0:
        notes.append(Witness("k-squared", "-", f"K^2 = {k2} is not positive"))
    return NefAmpleReport("nef-only", (), tuple(notes), tuple(contractions))


def _contraction_for(ms: MarkedSurface, curve: str, meets: list[str]) -> Contraction:
    """Describe the T-singularity produced by contracting an equality curve."""
    joined = tuple(ms.chain_index[m] for m in meets)
    if len(meets) == 2 and len(set(joined)) == 2:
        (i, a), (j, b) = (joined[0], meets[0]), (joined[1], meets[1])
        left = _oriented(ms, i, a, end="last")
        right = _oriented(ms, j, b, end="first")
        if left is not None and right is not None:
            cq = blow_down_compose(left, right)
            return Contraction(curve, cq, t_singularity(cq.m, cq.q))
    # interior or single-chain equality: no chain-chain join picture to report
    return Contraction(curve, None, None)


def _oriented(ms: MarkedSurface, index: int, end_curve: str,
              end: str) -> Optional[tuple[int, ...]]:
    chain, entries = ms.wahl_chains[index], ms.strings[index]
    if end_curve not in (chain[0], chain[-1]):
        return None
    flip = end_curve == (chain[0] if end == "last" else chain[-1])
    return entries[::-1] if flip else entries


def obstruction_dim(config: Configuration, ambient_rank_cap: Optional[int] = None) -> int:
    """dim H^2(X, T_X) = r minus the (capped) rank of the Gram matrix.

    Zero exactly when the Gram matrix is invertible; the cap models the
    Picard number of the ambient surface.  The rank is the one kept with
    the configuration (`Configuration.rank_det`).
    """
    rank = config.rank_det[0]
    if ambient_rank_cap is not None:
        rank = min(rank, ambient_rank_cap)
    return config.r - rank


@dataclass(frozen=True)
class SingularityEntry:
    kind: str  # "wahl" | "ade"
    quotient: CyclicQuotient
    wahl: Optional[WahlSingularity] = None
    ade_k: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "wahl":
            return f"1/{self.quotient.m}(1,{self.quotient.q})"
        return f"A{self.ade_k} = 1/{self.quotient.m}(1,{self.quotient.q})"


def singularity_report(ms: MarkedSurface) -> list[SingularityEntry]:
    """Wahl chains as 1/n^2(1,na-1), A_k chains as 1/(k+1)(1,k)."""
    entries = [SingularityEntry("wahl", s.quotient(), wahl=s) for s in ms.wahl_data()]
    for chain in ms.ade_chains:
        k = len(chain)
        entries.append(SingularityEntry("ade", CyclicQuotient(k + 1, k), ade_k=k))
    return entries


@dataclass(frozen=True)
class Pi1Report:
    status: str  # "trivial" | "inconclusive"
    justification: str
    per_chain: tuple[str, ...] = ()


def _chain_hits(ms: MarkedSurface, curve: str) -> dict[int, list[str]]:
    """Wahl chain index -> chain curves this curve meets (with multiplicity)."""
    hits: dict[int, list[str]] = {}
    chain_index = ms.chain_index
    for other, k in ms.surface.neighbors(curve).items():
        if other in chain_index:
            hits.setdefault(chain_index[other], []).extend([other] * k)
    return hits


def pi1_verdict(ms: MarkedSurface) -> Pi1Report:
    """Sufficiency test for simple connectivity of the smoothed surface.

    Seeds: an external curve joining the ends of two chains with coprime
    indices kills both; one meeting a chain's end and nothing else kills
    that chain.  Then meridian propagation runs to a fixpoint: an external
    curve meeting a live chain exactly once, and otherwise only dead
    chains, kills that position's meridian exponent, and a chain dies once
    its exponents and n^2 have gcd 1.  Never reports "nontrivial".
    """
    chains = ms.wahl_chains
    if not chains:
        return Pi1Report("trivial", "no Wahl chains marked")
    data = ms.wahl_data()
    surface = ms.surface
    externals = [c.name for c in surface.curves if c.name not in ms.chain_index]
    hits_of = {name: _chain_hits(ms, name) for name in externals}

    dead: dict[int, str] = {}
    for name in externals:
        hits = hits_of[name]
        if surface.self_nodes(name) or any(c not in ms.chain_index
                                           for c in surface.neighbors(name)):
            continue  # meets something outside the chains: not condition I/II
        ends = {i: hit[0] for i, hit in hits.items()
                if len(hit) == 1 and hit[0] in (chains[i][0], chains[i][-1])}
        if len(hits) == 1 and len(ends) == 1:
            i = next(iter(ends))
            dead.setdefault(i, f"{name} meets only the end {ends[i]}")
        elif len(hits) == 2 and len(ends) == 2:
            i, j = sorted(ends)
            if gcd(data[i].n, data[j].n) == 1:
                why = f"{name} joins chain ends; gcd({data[i].n},{data[j].n})=1"
                dead.setdefault(i, why)
                dead.setdefault(j, why)

    changed = True
    while changed and len(dead) < len(chains):
        changed = False
        for i, chain in enumerate(chains):
            if i in dead:
                continue
            exps = meridian_exponents(ms.strings[i])
            imposed: list[tuple[int, str]] = []
            for name in externals:
                hits = hits_of[name]
                if len(hits.get(i, [])) != 1:
                    continue
                if any(j != i and j not in dead for j in hits):
                    continue  # tied to a still-live chain: no clean relation
                pos = chain.index(hits[i][0])
                imposed.append((exps[pos], name))
            m = data[i].n * data[i].n
            g = gcd(m, *(t for t, _ in imposed)) if imposed else m
            if g == 1:
                dead[i] = ("meridian exponents "
                           f"{[t for t, _ in imposed]} from "
                           f"{[n for _, n in imposed]} generate")
                changed = True

    notes = tuple(f"chain {i}: {dead[i]}" if i in dead else
                  f"chain {i}: residual meridian subgroup nontrivial"
                  for i in range(len(chains)))
    if len(dead) == len(chains):
        return Pi1Report("trivial", "every chain meridian group dies", notes)
    return Pi1Report("inconclusive",
                     "no sufficiency criterion applies; triviality not certified",
                     notes)


@dataclass(frozen=True)
class SurfaceReport:
    """Everything the toolkit certifies about one construction."""

    k2: int
    singularities: tuple[str, ...]
    ample: NefAmpleReport
    obstruction: int
    pi1: Pi1Report
    family_dim: int

    def lines(self) -> list[str]:
        out = [f"K^2 = {self.k2}",
               "singularities: " + ", ".join(self.singularities),
               f"canonical class: {self.ample.status}",
               f"obstruction dimension: {self.obstruction}",
               f"pi1 verdict: {self.pi1.status} ({self.pi1.justification})",
               f"family dimension: {self.family_dim}"]
        for w in self.ample.witnesses + self.ample.warnings:
            out.append(f"  witness[{w.kind}] {w.curve}: {w.detail}")
        return out


def surface_report(ms: MarkedSurface, base: Configuration) -> SurfaceReport:
    """Assemble the full report; base is the configuration before blow-ups."""
    k2 = k_squared(ms)
    return SurfaceReport(
        k2=k2,
        singularities=tuple(str(e) for e in singularity_report(ms)),
        ample=nef_ample_check(ms),
        obstruction=obstruction_dim(base),
        pi1=pi1_verdict(ms),
        family_dim=20 - 2 * k2,
    )

"""Nodal configurations of rational curves and the blow-up engine.

A configuration is a multigraph: curves with self-intersections, plus one
explicit node per physical intersection point (a pair of curves meeting
twice contributes two distinct nodes; a nodal irreducible curve carries
self-nodes).  All derived linear algebra is exact over the integers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

__all__ = [
    "ConfigurationError",
    "Ambient",
    "K3",
    "ENRIQUES",
    "Curve",
    "Node",
    "Configuration",
    "BlowupStep",
    "det_exact",
    "rank_exact",
    "geography_check",
    "GeographyReport",
]


class ConfigurationError(ValueError):
    """Raised for malformed configurations or unknown curve/node references."""


@dataclass(frozen=True)
class Ambient:
    name: str
    k_sq: int
    chi_top: int


K3 = Ambient("K3", 0, 24)
ENRIQUES = Ambient("Enriques", 0, 12)


@dataclass(frozen=True)
class Curve:
    name: str
    self_int: int
    origin: str = "base"  # "base" or "exc:<step index>"

    @property
    def is_exceptional(self) -> bool:
        return self.origin.startswith("exc:")


@dataclass(frozen=True)
class Node:
    """One physical intersection point between two (branches of) curves."""

    id: int
    a: str
    b: str

    @property
    def is_self_node(self) -> bool:
        return self.a == self.b

    def pair(self) -> tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def other(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise ConfigurationError(f"curve {name} is not on node {self.id}")

    def touches(self, name: str) -> bool:
        return name == self.a or name == self.b


@dataclass(frozen=True)
class BlowupStep:
    """History entry: which node was blown up and what it created."""

    index: int
    node_pair: tuple[str, str]
    exceptional: str
    self_node: bool


@dataclass(frozen=True)
class Configuration:
    curves: tuple[Curve, ...]
    nodes: tuple[Node, ...]
    ambient: Ambient = K3
    history: tuple[BlowupStep, ...] = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.curves]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate curve names")
        known = set(names)
        for node in self.nodes:
            if node.a not in known or node.b not in known:
                raise ConfigurationError(f"node {node.id} references unknown curve")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate node ids")

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(curves: Iterable[tuple[str, int]],
              nodes: Iterable[tuple[str, str]],
              ambient: Ambient = K3) -> "Configuration":
        """Build from (name, self_int) pairs and (nameA, nameB) node pairs.

        Duplicate node pairs denote multiple intersection points.
        """
        cs = tuple(Curve(name, int(s)) for name, s in curves)
        ns = tuple(Node(i, a, b) for i, (a, b) in enumerate(nodes))
        return Configuration(cs, ns, ambient)

    # -- basic queries -----------------------------------------------------

    @property
    def r(self) -> int:
        return len(self.curves)

    @property
    def t2(self) -> int:
        return len(self.nodes)

    def curve(self, name: str) -> Curve:
        for c in self.curves:
            if c.name == name:
                return c
        raise ConfigurationError(f"unknown curve {name!r}")

    def has_curve(self, name: str) -> bool:
        return any(c.name == name for c in self.curves)

    def node(self, node_id: int) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise ConfigurationError(f"unknown node {node_id}")

    def nodes_between(self, a: str, b: str) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.pair() == ((a, b) if a <= b else (b, a)))

    def pairing(self, a: str, b: str) -> int:
        """Intersection number: self_int on the diagonal, node count off it."""
        if a == b:
            return self.curve(a).self_int
        return len(self.nodes_between(a, b))

    def nodes_at(self, name: str) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.touches(name))

    def self_nodes(self, name: str) -> int:
        return sum(1 for n in self.nodes if n.is_self_node and n.a == name)

    def neighbors(self, name: str) -> set[str]:
        out = set()
        for n in self.nodes:
            if n.touches(name):
                other = n.other(name)
                if other != name:
                    out.add(other)
        return out

    @property
    def blowup_count(self) -> int:
        return len(self.history)

    # -- derived invariants --------------------------------------------------

    def intersection_matrix(self, order: Optional[Sequence[str]] = None) -> list[list[int]]:
        """Exact symmetric intersection matrix in the given curve order.

        `order` may be a subset of the curves (restriction); default is the
        configuration's own curve order.
        """
        names = list(order) if order is not None else [c.name for c in self.curves]
        for name in names:
            self.curve(name)
        return [[self.pairing(a, b) for b in names] for a in names]

    def log_chern(self) -> tuple[int, int]:
        """Log Chern numbers (c1bar^2, c2bar) of the pair (ambient, curves)."""
        c1 = 2 * self.t2 - 2 * self.r
        c2 = self.ambient.chi_top + self.t2 - 2 * self.r
        return c1, c2

    def pk_invariants(self) -> tuple[int, int]:
        """(P, K): P = sum C_i^2 + 5r - 2*t2, K = K_S^2 + 2r - t2 - P.

        K_S^2 here is the ambient value minus one per recorded blow-up.
        Both invariants are preserved by blow_up; on a completed
        construction P counts the Wahl chains and K equals K_X^2.
        """
        total = sum(c.self_int for c in self.curves)
        p = total + 5 * self.r - 2 * self.t2
        k_ambient = self.ambient.k_sq - self.blowup_count
        k = k_ambient + 2 * self.r - self.t2 - p
        return p, k

    # -- blow-up engine ---------------------------------------------------

    def blow_up(self, node_id: int) -> "Configuration":
        """Blow up one node: both incident branches' curves drop by one and
        the new (-1)-curve meets each branch once.

        A self-node decrements its curve twice and the exceptional curve
        meets it twice; such steps are flagged in the history.
        """
        target = self.node(node_id)
        step_index = len(self.history) + 1
        exc_name = f"E{step_index}"
        if self.has_curve(exc_name):
            raise ConfigurationError(f"exceptional name {exc_name} already taken")
        new_curves = []
        for c in self.curves:
            drop = (1 if c.name == target.a else 0) + (1 if c.name == target.b else 0)
            new_curves.append(replace(c, self_int=c.self_int - drop) if drop else c)
        new_curves.append(Curve(exc_name, -1, origin=f"exc:{step_index}"))
        next_id = max((n.id for n in self.nodes), default=-1) + 1
        kept = tuple(n for n in self.nodes if n.id != node_id)
        added = (Node(next_id, exc_name, target.a), Node(next_id + 1, exc_name, target.b))
        step = BlowupStep(step_index, target.pair(), exc_name, target.is_self_node)
        return Configuration(tuple(new_curves), kept + added, self.ambient,
                             self.history + (step,))

    def restrict(self, names: Sequence[str]) -> "Configuration":
        """Sub-configuration on the named curves (keeps only internal nodes)."""
        keep = set(names)
        for name in names:
            self.curve(name)
        curves = tuple(c for c in self.curves if c.name in keep)
        nodes = tuple(n for n in self.nodes if n.a in keep and n.b in keep)
        return Configuration(curves, nodes, self.ambient)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "curves": [{"name": c.name, "self_int": c.self_int} for c in self.curves],
            "nodes": [[n.a, n.b] for n in self.nodes],
        }
        if self.ambient is not K3:
            payload["ambient"] = {"name": self.ambient.name, "k_sq": self.ambient.k_sq,
                                  "chi_top": self.ambient.chi_top}
        return json.dumps(payload, indent=1)

    @staticmethod
    def from_json(text: str) -> "Configuration":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError("top level must be an object")
        unknown = set(payload) - {"curves", "nodes", "ambient"}
        if unknown:
            raise ConfigurationError(f"unknown fields: {sorted(unknown)}")
        ambient = K3
        if "ambient" in payload:
            amb = payload["ambient"]
            if not isinstance(amb, dict):
                raise ConfigurationError(f"ambient must be an object, got {amb!r}")
            unknown = set(amb) - {"name", "k_sq", "chi_top"}
            if unknown:
                raise ConfigurationError(f"unknown ambient fields: {sorted(unknown)}")
            missing = {"name", "k_sq", "chi_top"} - set(amb)
            if missing:
                raise ConfigurationError(f"ambient {amb!r} lacks {sorted(missing)}")
            ambient = Ambient(amb["name"], int(amb["k_sq"]), int(amb["chi_top"]))
        curves = []
        for entry in payload.get("curves", []):
            unknown = set(entry) - {"name", "self_int"}
            if unknown:
                raise ConfigurationError(f"unknown curve fields: {sorted(unknown)}")
            missing = {"name", "self_int"} - set(entry)
            if missing:
                raise ConfigurationError(f"curve entry {entry!r} lacks {sorted(missing)}")
            curves.append((entry["name"], int(entry["self_int"])))
        nodes = []
        for entry in payload.get("nodes", []):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ConfigurationError(f"node entry must be a pair, got {entry!r}")
            nodes.append((entry[0], entry[1]))
        return Configuration.build(curves, nodes, ambient)


# -- exact linear algebra ---------------------------------------------------

def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in matrix]
    if any(len(row) != n for row in a):
        raise ConfigurationError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank over Q by Gaussian elimination in `Fraction`s, pivoting on
    the first nonzero entry of each column."""
    a = [[Fraction(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    row = 0
    for col in range(cols):
        pivot = next((i for i in range(row, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = a[row][col]
        for i in range(row + 1, rows):
            if a[i][col] != 0:
                factor = a[i][col] / inv
                for j in range(col, cols):
                    a[i][j] -= factor * a[row][j]
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


# -- geography ----------------------------------------------------------------

@dataclass(frozen=True)
class GeographyReport:
    p: int
    k2: int
    admissible: bool
    r: int
    t2: int
    nodes_to_blow_up: int


def geography_check(p: int, k2: int) -> GeographyReport:
    """Log-geography bounds on a K3: admissible iff K^2 <= 14 - (3P-2)/5.

    Also reports the forced curve and node counts r = P + 2K^2,
    t2 = 3K^2 + P, and the number of base nodes blown up, P + K^2.
    """
    if p < 0:
        raise ConfigurationError("P must be nonnegative")
    if k2 < 1:
        raise ConfigurationError("K^2 must be >= 1")
    admissible = 5 * k2 + 3 * p <= 72  # k2 <= 14 - (3p-2)/5, cleared of fractions
    return GeographyReport(p, k2, admissible, p + 2 * k2, 3 * k2 + p, p + k2)

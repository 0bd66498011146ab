"""Nodal configurations of rational curves and the blow-up engine.

A configuration is a multigraph: curves with self-intersections, plus one
explicit node per physical intersection point (a pair of curves meeting
twice contributes two distinct nodes; a nodal irreducible curve carries
self-nodes).  All derived linear algebra is exact over the integers.

A configuration is immutable, so the node count of each curve pair, which
`pairing` reads, is tabulated the first time it is asked for and kept with
the instance.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

__all__ = [
    "ConfigurationError",
    "Ambient",
    "K3",
    "Curve",
    "Node",
    "Configuration",
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


@dataclass(frozen=True)
class Curve:
    name: str
    self_int: int


def _pair(a: str, b: str) -> tuple[str, str]:
    """A curve pair in the one order every node-count table uses."""
    return (a, b) if a <= b else (b, a)


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
        return _pair(self.a, self.b)

    def other(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise ConfigurationError(f"curve {name} is not on node {self.id}")

    def touches(self, name: str) -> bool:
        return name == self.a or name == self.b


@dataclass(frozen=True)
class Configuration:
    curves: tuple[Curve, ...]
    nodes: tuple[Node, ...]
    ambient: Ambient = K3
    blowup_count: int = 0  # blow-ups so far; the next one creates E{blowup_count + 1}

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
        pair = _pair(a, b)
        return tuple(n for n in self.nodes if n.pair() == pair)

    def pairing(self, a: str, b: str) -> int:
        """Intersection number: self_int on the diagonal, node count off it."""
        if a == b:
            return self.curve(a).self_int
        return self._meets[_pair(a, b)]

    @cached_property
    def _meets(self) -> Counter:
        """The number of nodes of each curve pair, as `Node.pair` orders it.

        Built on first use and kept with the instance; not a field, so
        equality, hashing and serialisation do not see it.
        """
        return Counter(n.pair() for n in self.nodes)

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
        the new (-1)-curve, named E{blowup_count + 1}, meets each branch once.

        A self-node decrements its curve twice and the exceptional curve
        meets it twice.

        The result is not validated again: its names stay distinct because
        the new name is checked against the curves, its node ids because
        the new ones are past every existing id, and both new nodes name
        known curves (the new one and the blown-up node's).
        """
        target = self.node(node_id)
        exc_name = f"E{self.blowup_count + 1}"
        if self.has_curve(exc_name):
            raise ConfigurationError(f"exceptional name {exc_name} already taken")
        new_curves = []
        for c in self.curves:
            drop = (1 if c.name == target.a else 0) + (1 if c.name == target.b else 0)
            new_curves.append(Curve(c.name, c.self_int - drop) if drop else c)
        new_curves.append(Curve(exc_name, -1))
        next_id = max((n.id for n in self.nodes), default=-1) + 1
        kept = tuple(n for n in self.nodes if n.id != node_id)
        added = (Node(next_id, exc_name, target.a), Node(next_id + 1, exc_name, target.b))
        out = object.__new__(Configuration)  # no __post_init__, see above
        object.__setattr__(out, "curves", tuple(new_curves))
        object.__setattr__(out, "nodes", kept + added)
        object.__setattr__(out, "ambient", self.ambient)
        object.__setattr__(out, "blowup_count", self.blowup_count + 1)
        return out

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
            amb = _json_object(payload["ambient"], "ambient", {"name": str, "k_sq": int,
                                                               "chi_top": int})
            ambient = Ambient(amb["name"], amb["k_sq"], amb["chi_top"])
        curves = []
        for entry in _json_list(payload.get("curves", []), "curves"):
            entry = _json_object(entry, "curve", {"name": str, "self_int": int})
            curves.append((entry["name"], entry["self_int"]))
        nodes = []
        for entry in _json_list(payload.get("nodes", []), "nodes"):
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(name, str) for name in entry)):
                raise ConfigurationError(f"node entry must be a pair of curve names, "
                                         f"got {entry!r}")
            nodes.append((entry[0], entry[1]))
        return Configuration.build(curves, nodes, ambient)


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{what} must be a list, got {value!r}")
    return value


def _json_object(value, what: str, types: dict) -> dict:
    """`value` as an object with exactly the keys of `types`, each of its type."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} must be an object, got {value!r}")
    unknown = set(value) - set(types)
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(types) - set(value)
    if missing:
        raise ConfigurationError(f"{what} {value!r} lacks {sorted(missing)}")
    for key, kind in types.items():
        # bool is an int subclass, but true/false is no integer
        if not isinstance(value[key], kind) or isinstance(value[key], bool):
            raise ConfigurationError(f"{what} field {key!r} must be of type "
                                     f"{kind.__name__}, got {value[key]!r}")
    return value


# -- exact linear algebra ---------------------------------------------------

def _bareiss(matrix: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank, det) of an integer matrix by fraction-free (Bareiss) elimination.

    Each pivot is the first nonzero entry of its column at or below the
    current row; a column with no pivot is skipped.  After k pivots every
    entry below them is a (k+1)-minor, so each division by the previous
    pivot is exact.  det is 0 unless the matrix is square of full rank;
    the empty matrix has rank 0 and det 1.
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank, sign, prev = 0, 1, 1
    for col in range(cols):
        if rank == rows:
            break
        pivot = next((i for i in range(rank, rows) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        for row in a[rank + 1:]:
            for j in range(col + 1, cols):
                row[j] = (row[j] * top[col] - row[col] * top[j]) // prev
            row[col] = 0
        prev = top[col]
        rank += 1
    return rank, (sign * prev if rank == rows == cols else 0)


def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (see `_bareiss`)."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ConfigurationError("matrix must be square")
    return _bareiss(matrix)[1]


def rank_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank over Q of an integer matrix, any shape (see `_bareiss`)."""
    return _bareiss(matrix)[0]


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

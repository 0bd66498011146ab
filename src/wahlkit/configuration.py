"""Nodal configurations of rational curves on a K3 surface and the blow-up
engine.

A configuration is a multigraph: curves with self-intersections, plus one
explicit node per physical intersection point (a pair of curves meeting
twice contributes two distinct nodes; a nodal irreducible curve carries
self-nodes).  The ambient surface is always a K3 (chi_top = 24, K^2 = 0).
All derived linear algebra is exact over the integers.

A configuration is immutable, so every query reads one graph built the
first time it is asked for and kept with the instance: `self_int`, each
curve's self-intersection, and `meets`, each curve pair's node count.  The
rank and determinant of its intersection matrix (`rank_det`) are kept the
same way, from one elimination.  The blow-up engine (`blow_ups`), which
both `blow_up` and plan replay run, reads the curves and nodes themselves
and builds no graph.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

__all__ = [
    "ConfigurationError",
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


@dataclass(frozen=True)
class Configuration:
    curves: tuple[Curve, ...]
    nodes: tuple[Node, ...]
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
              nodes: Iterable[tuple[str, str]]) -> "Configuration":
        """Build from (name, self_int) pairs and (nameA, nameB) node pairs.

        Duplicate node pairs denote multiple intersection points.
        """
        cs = tuple(Curve(name, int(s)) for name, s in curves)
        ns = tuple(Node(i, a, b) for i, (a, b) in enumerate(nodes))
        return Configuration(cs, ns)

    # -- the graph ----------------------------------------------------------

    @cached_property
    def self_int(self) -> dict[str, int]:
        """Each curve's name -> its self-intersection, in curve order.

        With `meets`, the graph every query reads.  Both are built on first
        use and kept with the instance, shared by every reader, who must not
        modify them; they are not fields, so equality, hashing and
        serialisation do not see them.
        """
        return {c.name: c.self_int for c in self.curves}

    @cached_property
    def meets(self) -> Counter:
        """Each curve pair, as `Node.pair` orders it, -> its number of nodes."""
        return Counter(n.pair() for n in self.nodes)

    @cached_property
    def rank_det(self) -> tuple[int, int]:
        """(rank, det) of the intersection matrix in curve order, from one
        elimination (`_bareiss`), kept with the instance like the graph."""
        return _bareiss(self.intersection_matrix())

    @cached_property
    def _around(self) -> dict[str, dict[str, int]]:
        """`meets` by curve: each curve -> each other curve it meets -> nodes."""
        out: dict[str, dict[str, int]] = {}
        for (a, b), k in self.meets.items():
            if a != b:
                out.setdefault(a, {})[b] = k
                out.setdefault(b, {})[a] = k
        return out

    # -- basic queries -----------------------------------------------------

    @property
    def r(self) -> int:
        return len(self.curves)

    @property
    def t2(self) -> int:
        return len(self.nodes)

    def curve(self, name: str) -> Curve:
        return Curve(name, self.self_ints((name,))[0])

    def self_ints(self, names: Iterable[str]) -> tuple[int, ...]:
        """The named curves' self-intersections, in order; an unknown name
        raises ConfigurationError."""
        self_int = self.self_int
        try:
            return tuple(self_int[name] for name in names)
        except KeyError as exc:
            raise ConfigurationError(f"unknown curve {exc.args[0]!r}") from None

    def node(self, node_id: int) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise ConfigurationError(f"unknown node {node_id}")

    def pairing(self, a: str, b: str) -> int:
        """Intersection number: self_int on the diagonal, node count off it."""
        if a == b:
            return self.self_ints((a,))[0]
        return self.meets[_pair(a, b)]

    def self_nodes(self, name: str) -> int:
        """The curve's number of self-nodes; 0 for an unknown name."""
        return self.meets[name, name]

    def neighbors(self, name: str) -> dict[str, int]:
        """Each other curve that meets this one -> their number of nodes, in
        the order of their first nodes; self-nodes are left out (`self_nodes`).
        Empty for an unknown name.  Shared with the instance: do not modify.
        """
        return self._around.get(name, {})

    # -- derived invariants --------------------------------------------------

    def intersection_matrix(self, order: Optional[Sequence[str]] = None) -> list[list[int]]:
        """Exact symmetric intersection matrix in the given curve order.

        `order` may be a subset of the curves (restriction); default is the
        configuration's own curve order.
        """
        names = list(order) if order is not None else list(self.self_int)
        self.self_ints(names)
        self_int, meets = self.self_int, self.meets
        return [[self_int[a] if a == b else meets[_pair(a, b)] for b in names]
                for a in names]

    def log_chern(self) -> tuple[int, int]:
        """Log Chern numbers (c1bar^2, c2bar) of the pair (K3, curves); K3's
        topological Euler number is 24."""
        c1 = 2 * self.t2 - 2 * self.r
        c2 = 24 + self.t2 - 2 * self.r
        return c1, c2

    def pk_invariants(self) -> tuple[int, int]:
        """(P, K): P = sum C_i^2 + 5r - 2*t2, K = K_S^2 + 2r - t2 - P.

        K_S^2 here is K3's K^2 = 0 minus one per recorded blow-up.
        Both invariants are preserved by blow_up; on a completed
        construction P counts the Wahl chains and K equals K_X^2.
        """
        total = sum(c.self_int for c in self.curves)
        p = total + 5 * self.r - 2 * self.t2
        k = -self.blowup_count + 2 * self.r - self.t2 - p
        return p, k

    # -- blow-up engine ---------------------------------------------------

    def blow_up(self, node_id: int) -> "Configuration":
        """Blow up one node, the one-step case of `blow_ups`."""
        pair = self.node(node_id).pair()
        ids = [n.id for n in self.nodes if n.pair() == pair]
        return self.blow_ups([(*pair, ids.index(node_id))])

    def blow_ups(self, steps: Iterable[tuple[str, str, int]],
                 missing: type[Exception] = ConfigurationError) -> "Configuration":
        """Blow up in turn, for each step (a, b, k), the k-th node between a
        and b in node order; `missing` is raised when there is none.

        Each branch's curve drops by one (a self-node's twice) and the new
        (-1)-curve E{blowup_count + 1} meets each branch once; the two new
        nodes go at the end, with ids past every id so far.  The result is
        built once and not validated again (each new name is checked), and
        no graph is read or built.
        """
        self_int = {c.name: c.self_int for c in self.curves}
        nodes: dict[int, Node] = {}  # id -> node, in node order
        between: dict[tuple[str, str], list[int]] = {}  # pair -> ids, in node order
        for node in self.nodes:
            nodes[node.id] = node
            between.setdefault(node.pair(), []).append(node.id)
        count = self.blowup_count
        top = max(nodes, default=-1)
        for a, b, k in steps:
            ids = between.get(_pair(a, b), [])
            if k >= len(ids):
                raise missing(f"no node #{k} between {a} and {b}")
            target = nodes.pop(ids.pop(k))
            count += 1
            exc = f"E{count}"
            if exc in self_int:
                raise ConfigurationError(f"exceptional name {exc} already taken")
            self_int[target.a] -= 1
            self_int[target.b] -= 1
            self_int[exc] = -1
            for other in (target.a, target.b):
                top += 1
                nodes[top] = Node(top, exc, other)
                between.setdefault(_pair(exc, other), []).append(top)
        out = object.__new__(Configuration)  # no __post_init__
        object.__setattr__(out, "curves", tuple(Curve(n, s) for n, s in self_int.items()))
        object.__setattr__(out, "nodes", tuple(nodes.values()))
        object.__setattr__(out, "blowup_count", count)
        return out

    def restrict(self, names: Sequence[str]) -> "Configuration":
        """Sub-configuration on the named curves (keeps only internal nodes).

        It keeps the blow-ups so far, so K stays as `pk_invariants` counts it
        and the next blow-up's curve is named after the last one.
        """
        self.self_ints(names)
        keep = set(names)
        curves = tuple(c for c in self.curves if c.name in keep)
        nodes = tuple(n for n in self.nodes if n.a in keep and n.b in keep)
        return Configuration(curves, nodes, self.blowup_count)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "curves": [{"name": c.name, "self_int": c.self_int} for c in self.curves],
            "nodes": [[n.a, n.b] for n in self.nodes],
        }
        return json.dumps(payload, indent=1)

    @staticmethod
    def from_json(text: str) -> "Configuration":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError("top level must be an object")
        unknown = set(payload) - {"curves", "nodes"}
        if unknown:
            raise ConfigurationError(f"unknown fields: {sorted(unknown)}")
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
        return Configuration.build(curves, nodes)


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
    return GeographyReport(admissible, p + 2 * k2, 3 * k2 + p, p + k2)

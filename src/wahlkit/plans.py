"""Blow-up plan inference and bounded construction search.

The records name the base points blown up but encode the infinitely-near
part only through opaque bracket patterns, so a plan is recovered by
search.  Plan inference (`infer_plan`) and construction search
(`search_constructions`) share one search core:

- `_base_choices` enumerates the choices of base nodes to blow up, one per
  multiset of curve pairs, counting each as one state.  It generates only
  the canonical choice of each multiset: deciding the nodes in id order, a
  node may be chosen only after the node before it on the same curve
  pair.  That is the first of its multiset among the combinations of node
  ids, so choices come in lexicographic order with no duplicate to drop;
- `_leaves` distributes the blow-ups over the chosen nodes (one allocation
  at a time), branches over the nodes sitting on each tower's exceptional
  curves, and yields every completed configuration with its steps;
- `_DepthBound` drops the states whose curves are already deeper than the
  chains sought allow, since blow-ups only deepen curves.

Inference accepts exactly the leaves whose marked surface reports the
stated chains; search keeps the leaves that mark greedily into Wahl chains
with an ample canonical class.  Pruning only ever discards states that
provably cannot reach the chains sought.  Inference also checks the rules
of `_ChoicePrefix` on every prefix of a base-node choice, and counts the
choices below a failing prefix as states in one step (a coefficient of a
product of polynomials, see `_base_choices`) instead of building them, so
the state counts equal those of checking every choice whole.  Abstract
tower outcomes depend only on the tower's size and limits; each search
call memoises them in its own table.
"""
from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .assembly import (AssemblyError, MarkedSurface, SurfaceReport, k_squared,
                       nef_ample_check, surface_report)
from .chains import wahl_singularity
from .configuration import Configuration, det_exact, geography_check
from .catalog.records import BlowupSpec, ChainSpec, SurfaceRecord

__all__ = [
    "PlanError", "PlanStep", "BlowupPlan", "InferenceResult",
    "SearchParams", "SearchResult", "infer_plan", "search_constructions",
    "mark_chains",
]


class PlanError(ValueError):
    """Plan references a node that does not exist in the evolving surface."""


@dataclass(frozen=True)
class PlanStep:
    """Blow up the occurrence-th node between the named curves."""

    a: str
    b: str
    occurrence: int = 0

    def __str__(self) -> str:
        tag = f"#{self.occurrence}" if self.occurrence else ""
        return f"{self.a}*{self.b}{tag}"


@dataclass(frozen=True)
class BlowupPlan:
    steps: tuple[PlanStep, ...]

    def execute(self, base: Configuration) -> Configuration:
        config = base
        for step in self.steps:
            nodes = config.nodes_between(step.a, step.b)
            if step.occurrence >= len(nodes):
                raise PlanError(f"no node #{step.occurrence} between "
                                f"{step.a} and {step.b}")
            config = config.blow_up(nodes[step.occurrence].id)
        return config

    def __str__(self) -> str:
        return ", ".join(str(s) for s in self.steps)


@dataclass
class InferenceResult:
    record: SurfaceRecord
    plan: Optional[BlowupPlan] = None
    marked: Optional[MarkedSurface] = None
    report: Optional[SurfaceReport] = None
    states: int = 0
    pruned: int = 0  # base-node choices rejected by a prefix, each also a state
    near_misses: list[str] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.plan is not None

    def summary(self) -> str:
        if self.success:
            return (f"({self.record.rid}) plan found after {self.states} states: "
                    f"{self.plan}")
        misses = "; ".join(self.near_misses[:4]) or "no partial matches"
        return (f"({self.record.rid}) ambiguous after {self.states} states "
                f"({self.pruned} pruned): {misses}")


# -- chain marking ------------------------------------------------------------

def _paths_matching(config: Configuration, target: tuple[int, ...],
                    used: set[str]) -> list[tuple[str, ...]]:
    """All simple paths whose self-intersection string equals the target.

    Consecutive path curves must share exactly one node; curves in `used`
    are excluded.  Matches of a string and its reverse are deduplicated.
    """
    curves = {c.name: c.self_int for c in config.curves}
    out: set[tuple[str, ...]] = set()

    def extend(path: list[str], pos: int) -> None:
        if pos == len(target):
            key = min(tuple(path), tuple(reversed(path)))
            out.add(key)
            return
        last = path[-1]
        for nxt in sorted(config.neighbors(last)):
            if nxt in used or nxt in path:
                continue
            if curves[nxt] != -target[pos]:
                continue
            if len(config.nodes_between(last, nxt)) != 1:
                continue
            if any(config.pairing(nxt, earlier) != 0 for earlier in path[:-1]):
                continue
            path.append(nxt)
            extend(path, pos + 1)
            path.pop()

    for name, self_int in sorted(curves.items()):
        if name in used or self_int != -target[0]:
            continue
        extend([name], 1)
    return sorted(out)


def mark_chains(config: Configuration, targets: Sequence[tuple[int, ...]],
                ade: Sequence[tuple[str, ...]] = ()) -> Optional[MarkedSurface]:
    """Mark disjoint chains matching the target strings exactly, or None.

    Targets are matched longest first; the marking must leave only (-1)-
    and (-2)-curves unmarked.
    """
    order = sorted(range(len(targets)), key=lambda i: -len(targets[i]))
    chosen: dict[int, tuple[str, ...]] = {}

    def assign(k: int, used: set[str]) -> bool:
        if k == len(order):
            return True
        idx = order[k]
        for path in _paths_matching(config, targets[idx], used):
            if any(config.pairing(a, b) != 0
                   for a in path for other in chosen.values() for b in other):
                continue
            chosen[idx] = path
            if assign(k + 1, used | set(path)):
                return True
            del chosen[idx]
        return False

    ade_used = {c for chain in ade for c in chain}
    if not assign(0, set(ade_used)):
        return None
    ordered = []
    for idx in range(len(targets)):
        path = chosen[idx]
        entries = tuple(-config.curve(c).self_int for c in path)
        if entries != tuple(targets[idx]):
            path = tuple(reversed(path))
        ordered.append(tuple(path))
    return _marked(config, ordered, ade)


def _marked(config: Configuration, wahl: Sequence[Sequence[str]],
            ade: Sequence[Sequence[str]]) -> Optional[MarkedSurface]:
    """The surface with these chains marked, or None if the marking is invalid."""
    try:
        return MarkedSurface(config, tuple(tuple(c) for c in wahl),
                             tuple(tuple(c) for c in ade))
    except AssemblyError:
        return None


# -- the search core -----------------------------------------------------------

@dataclass(frozen=True)
class _DepthBound:
    """Caps on curve depths (-C^2) that a search state may reach.

    A state passes when its depths >= 3, sorted, are dominated entry by
    entry by `caps` (sorted descending): equivalently, for every k >= 3 it
    has at most as many curves at depth >= k as `caps` has entries >= k.
    Blow-ups only deepen curves, so a state that fails can never finish.
    """

    caps: tuple[int, ...]

    @classmethod
    def of_chains(cls, targets: Sequence[tuple[int, ...]]) -> "_DepthBound":
        """Every curve deeper than 2 must end as an entry of a stated chain."""
        return cls(tuple(sorted((b for t in targets for b in t if b >= 3),
                                reverse=True)))

    def admits(self, depths: Iterable[int]) -> bool:
        deep = sorted([d for d in depths if d >= 3], reverse=True)
        return len(deep) <= len(self.caps) and all(map(operator.le, deep, self.caps))


def _substring_pool(targets: Sequence[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """All contiguous substrings of the stated chains, both orientations."""
    pool: set[tuple[int, ...]] = set()
    for target in targets:
        for chain in (tuple(target), tuple(reversed(target))):
            for i in range(len(chain)):
                for j in range(i + 1, len(chain) + 1):
                    pool.add(chain[i:j])
    return frozenset(pool)


def _runs_embed(xs: tuple[int, ...], pool: Optional[frozenset[tuple[int, ...]]]) -> bool:
    """Completed-tower filter: maximal runs of non-(-1) exceptional curves
    are final and must occur contiguously inside some stated chain."""
    if pool is None:
        return True
    run: list[int] = []
    for x in xs + (1,):
        if x == 1:
            if run and tuple(run) not in pool:
                return False
            run = []
        else:
            run.append(x)
    return True


def _tower_outcomes(size: int, bound: Optional[_DepthBound], pool,
                    ones_cap: Optional[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Enumerate completed towers abstractly, one witness script each.

    A tower lives on the local chain [c1', E..., c2']; a blow-up picks a
    gap (a surviving node), deepens its two sides and inserts a fresh
    (-1)-curve.  States that differ only in the script are merged; results
    are (exceptional depth string, gap script) pairs.

    For large towers with known targets the enumeration runs backwards
    instead: assemble candidate final strings from target substrings
    separated by surviving (-1)s, and keep the ones that contract to a
    single curve.
    """
    if pool is not None and ones_cap is not None and size >= 5:
        return _targeted_outcomes(size, bound, pool, ones_cap)
    level: dict[tuple[int, ...], tuple[int, ...]] = {(1,): ()}
    for step in range(size - 1):
        remaining = size - 2 - step
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for xs, script in sorted(level.items()):
            for gap in range(len(xs) + 1):
                new = list(xs)
                if gap > 0:
                    new[gap - 1] += 1
                if gap < len(xs):
                    new[gap] += 1
                new.insert(gap, 1)
                state = tuple(new)
                if state in nxt or (bound is not None and not bound.admits(state)):
                    continue
                if ones_cap is not None and state.count(1) - remaining > ones_cap:
                    continue  # each insertion removes at most one surviving 1
                nxt[state] = script + (gap,)
        level = nxt
    return [(xs, script) for xs, script in sorted(level.items())
            if _runs_embed(xs, pool)
            and (ones_cap is None or xs.count(1) <= ones_cap)]


def _reduce_script(final: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Insertion script producing `final` from a single (-1), or None.

    Contracts 1-entries one at a time (neighbors decrement, boundaries
    absorb silently); a successful contraction order reversed is exactly
    the insertion script, gap g being the entry index of the inserted 1.
    """
    dead: set[tuple[int, ...]] = set()

    def rec(state: tuple[int, ...]) -> Optional[list[int]]:
        if state == (1,):
            return []
        if state in dead:
            return None
        for i, x in enumerate(state):
            if x != 1:
                continue
            new = list(state)
            del new[i]
            ok = True
            if i > 0:
                new[i - 1] -= 1
                ok = ok and new[i - 1] >= 1
            if i < len(new):
                new[i] -= 1
                ok = ok and new[i] >= 1
            if not ok:
                continue
            sub = rec(tuple(new))
            if sub is not None:
                return sub + [i]
        dead.add(state)
        return None

    script = rec(final)
    if script is None:
        return None
    # the reduction reaches the single base exceptional, so the reversed
    # removal order is exactly the insertion script after the base blow-up
    return tuple(script)


def _targeted_outcomes(size: int, bound: Optional[_DepthBound], pool: frozenset[tuple[int, ...]],
                       ones_cap: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Assemble candidate final tower strings run-by-run and validate them.

    A completed tower keeps at least one and at most ones_cap surviving
    (-1)-curves; runs between them must occur inside the stated chains.
    """
    by_len: dict[int, set[tuple[int, ...]]] = {}
    for sub in pool:
        by_len.setdefault(len(sub), set()).add(sub)
    outcomes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    # j surviving (-1)s split the string into j+1 runs (outer ones may be empty)
    for j in range(1, ones_cap + 1):
        if size >= j:
            _assemble_runs(size, j, by_len, bound, seen, outcomes)
    return sorted(outcomes)


def _assemble_runs(size: int, ones: int, by_len, bound, seen, outcomes) -> None:
    """Place `ones` single 1s between runs summing to size - ones."""
    def rec(parts: list[tuple[int, ...]], slots_left: int, mass_left: int) -> None:
        if slots_left == 0:
            if mass_left != 0:
                return
            final: list[int] = []
            for i, part in enumerate(parts):
                if i:
                    final.append(1)
                final.extend(part)
            state = tuple(final)
            if len(state) != size or state in seen:
                return
            if bound is not None and not bound.admits(state):
                return
            seen.add(state)
            script = _reduce_script(state)
            if script is not None:
                outcomes.append((state, script))
            return
        min_here = 0 if (not parts or slots_left == 1) else 1
        for length in range(min_here, mass_left + 1):
            if length == 0:
                rec(parts + [()], slots_left - 1, mass_left)
                continue
            for run in sorted(by_len.get(length, ())):
                rec(parts + [run], slots_left - 1, mass_left - length)

    rec([], ones + 1, size - ones)


def _tower_scripts(config: Configuration, base: PlanStep, size: int,
                   bound, pool, ones_cap, outcomes: dict
                   ) -> Iterable[tuple[Configuration, tuple[PlanStep, ...]]]:
    """All inequivalent ways to blow `size` times over one base node.

    Replays each abstract outcome's witness script on the concrete
    configuration: gap g of the local chain is the surviving node between
    neighbours g and g+1.  The abstract outcomes depend only on the tower
    parameters, so `outcomes` memoises them for the calling search.
    """
    nodes = config.nodes_between(base.a, base.b)
    if base.occurrence >= len(nodes):
        return
    key = (size, bound, pool, ones_cap)
    if key not in outcomes:
        outcomes[key] = _tower_outcomes(size, bound, pool, ones_cap)
    for _, script in outcomes[key]:
        state = config.blow_up(nodes[base.occurrence].id)
        local = [base.a, state.history[-1].exceptional, base.b]
        steps = [base]
        ok = True
        for gap in script:
            u, v = local[gap], local[gap + 1]
            between = state.nodes_between(u, v)
            if not between:
                ok = False
                break
            # the surviving local-chain node is the newest between u and v
            node = between[-1]
            occ = len(between) - 1
            state = state.blow_up(node.id)
            local.insert(gap + 1, state.history[-1].exceptional)
            steps.append(PlanStep(node.a if node.a <= node.b else node.b,
                                  max(node.a, node.b), occ))
        if ok:
            yield state, tuple(steps)


def _allocations(total: int, hints: Sequence[Optional[int]]) -> Iterable[tuple[int, ...]]:
    """Compositions of `total` into len(hints) positive sizes, hinted sizes first.

    Lazily yields allocations by increasing total deviation from the hints
    (bracket-pattern lengths), so the hinted allocation comes out first
    without materializing the composition space.
    """
    n = len(hints)

    def layer(deviation: Optional[int]) -> Iterable[tuple[int, ...]]:
        def rec(i: int, left: int, bad_left: Optional[int], acc: list[int]):
            if i == n:
                if left == 0 and (bad_left is None or bad_left == 0):
                    yield tuple(acc)
                return
            for s in range(1, left - (n - i - 1) + 1):
                if bad_left is None:
                    b = None
                else:
                    b = bad_left - (abs(s - hints[i]) if hints[i] is not None else 0)
                    if b < 0:
                        continue
                acc.append(s)
                yield from rec(i + 1, left - s, b, acc)
                acc.pop()
        yield from rec(0, total, deviation, [])

    if all(h is None for h in hints):
        yield from layer(None)
        return
    max_bad = total + sum(h for h in hints if h is not None)
    for deviation in range(max_bad + 1):
        yield from layer(deviation)


def _base_choices(base: Configuration, m: int, result, max_states: int,
                  prefix: Optional["_ChoicePrefix"] = None
                  ) -> Iterator[tuple[tuple[int, ...], tuple[tuple[str, str], ...]]]:
    """Each choice of m base nodes to blow up, as node ids and curve pairs.

    Choices meeting the same multiset of curve pairs are isomorphic, so
    only the canonical one is generated: nodes are decided in id order, and
    a node may be chosen only if the node before it on the same curve pair
    is.  Each choice counts as one state of `result`; the enumeration stops
    once the states exceed `max_states`.

    With a `prefix` filter, a decided prefix that fails it is not extended:
    its completions are counted as states (and as `result.pruned`) in one
    step, and only feasible choices are yielded.
    """
    nodes = sorted(base.nodes, key=operator.attrgetter("id"))
    ids = [n.id for n in nodes]
    pairs = [n.pair() for n in nodes]
    # left[i][pair]: the nodes of each curve pair at position i or later
    left = [Counter(pairs[i:]) for i in range(len(nodes) + 1)]

    def count(n: int) -> bool:
        """Count n choices as states; False once they exceed the budget."""
        if result.states + n > max_states:
            result.states = max(result.states + 1, max_states + 1)
            return False
        result.states += n
        return True

    def reject(i: int, need: int, closed: frozenset) -> bool:
        """Count the completions of a failing prefix decided up to i."""
        # choose 0..r of the r undecided nodes of each open pair, need in all:
        # the coefficient of x^need in the product of (1 + x + ... + x^r)
        poly = [1] + [0] * need
        for pair, r in left[i].items():
            if pair not in closed:
                poly = [sum(poly[max(0, k - r):k + 1]) for k in range(need + 1)]
        if not count(poly[need]):
            return False
        result.pruned += poly[need]
        return True

    def extend(i: int, chosen: tuple, closed: frozenset, room: int, state
               ) -> Iterator[tuple[tuple[int, ...], tuple[tuple[str, str], ...]]]:
        """Complete a prefix decided up to i; returns True once the budget stops it.

        `chosen` holds the positions chosen; `closed` holds the pairs with
        an unchosen node, whose later nodes stay unchosen; `room` counts
        the undecided nodes of the other pairs.
        """
        need = m - len(chosen)
        while i < len(nodes):
            pair = pairs[i]
            if need and pair not in closed:
                nxt = state.chosen(nodes[i]) if state is not None else None
                if state is not None and nxt is None:
                    if not reject(i + 1, need - 1, closed):
                        return True
                elif (yield from extend(i + 1, chosen + (i,), closed, room - 1, nxt)):
                    return True
                # leave node i unchosen, which closes its pair
                room -= left[i][pair]
                if room < need:
                    return False
                closed = closed | {pair}
            elif state is None and not need:
                break  # the rest stay unchosen, with nothing to check
            if state is not None:
                state = state.unchosen(nodes[i])
                if state is None:
                    return not reject(i + 1, need, closed)
            i += 1
        if not count(1):
            return True
        yield tuple(ids[j] for j in chosen), tuple(sorted([pairs[j] for j in chosen]))
        return False

    if m <= len(nodes):
        yield from extend(0, (), frozenset(), len(nodes), prefix)


class _ChoicePrefix:
    """Sound rules on the base nodes decided so far, in id order.

    - Unchosen non-self nodes survive as chain adjacencies, so they must
      form disjoint simple paths (degree at most 2, no cycle).
    - Every incident chosen node sinks its curve one step, so the depths
      2 + incidences must pass the depth bound.
    - A surviving node's endpoint depths must be dominated by some
      adjacent entry pair of a stated chain.

    Deciding more nodes only adds incidences and surviving nodes, so a
    prefix that fails a rule has no feasible completion.  `chosen` and
    `unchosen` return the extended prefix, or None when it fails.
    """

    __slots__ = ("bound", "reach", "inc", "degree", "ends", "surviving")

    def __init__(self, bound: _DepthBound, reach: tuple[int, ...], inc: dict,
                 degree: dict, ends: dict, surviving: tuple) -> None:
        self.bound = bound
        self.reach = reach
        self.inc = inc
        self.degree = degree
        self.ends = ends  # a path end -> the other end of its path
        self.surviving = surviving

    @classmethod
    def of_chains(cls, targets: Sequence[tuple[int, ...]],
                  bound: _DepthBound) -> "_ChoicePrefix":
        adjacent = {(t[i], t[i + 1]) for t in targets for i in range(len(t) - 1)}
        adjacent |= {(y, x) for x, y in adjacent}
        top = max((x for x, _ in adjacent), default=-1)
        # reach[d]: the deepest partner of an adjacent entry at least d deep
        reach = tuple(max(y for x, y in adjacent if x >= d) for d in range(top + 1))
        return cls(bound, reach, {}, {}, {}, ())

    def _dominated(self, inc: dict, u: str, v: str) -> bool:
        du, dv = 2 + inc.get(u, 0), 2 + inc.get(v, 0)
        return du < len(self.reach) and dv <= self.reach[du]

    def chosen(self, node) -> Optional["_ChoicePrefix"]:
        inc = dict(self.inc)
        inc[node.a] = inc.get(node.a, 0) + 1
        inc[node.b] = inc.get(node.b, 0) + 1
        if not self.bound.admits([2 + k for k in inc.values()]):
            return None
        if not all(self._dominated(inc, u, v) for u, v in self.surviving):
            return None
        return _ChoicePrefix(self.bound, self.reach, inc, self.degree, self.ends,
                             self.surviving)

    def unchosen(self, node) -> Optional["_ChoicePrefix"]:
        if node.is_self_node:
            return self  # its curve can only survive as a free nodal curve
        a, b = node.a, node.b
        degree = dict(self.degree)
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        if degree[a] > 2 or degree[b] > 2:
            return None
        # a and b are ends of paths (or isolated): joining them closes a
        # cycle exactly when they end the same path
        end_a, end_b = self.ends.get(a, a), self.ends.get(b, b)
        if end_a == b or not self._dominated(self.inc, a, b):
            return None
        ends = dict(self.ends)
        ends[end_a] = end_b
        ends[end_b] = end_a
        return _ChoicePrefix(self.bound, self.reach, self.inc, degree, ends,
                             self.surviving + ((a, b),))


def _leaves(base: Configuration, bases: Sequence[PlanStep],
            allocs: Iterable[tuple[int, ...]], bound: Optional[_DepthBound],
            pool, ones_cap: Optional[int], outcomes: dict, result, max_states: int
            ) -> Iterator[tuple[tuple[int, ...], Configuration, tuple[PlanStep, ...]]]:
    """Every completed configuration, with its allocation and steps.

    For each allocation, blows alloc[i] times over bases[i], depth first,
    one tower at a time.  Each configuration a tower yields counts as one
    state of `result`; the search stops once the states exceed
    `max_states`.  Configurations that `bound` rejects are not expanded.
    `outcomes` is the caller's tower-outcome memo (see `_tower_scripts`).
    """
    for alloc in allocs:
        stack: list[tuple[Configuration, tuple[PlanStep, ...], int]] = [(base, (), 0)]
        while stack:
            config, steps, idx = stack.pop()
            if idx == len(bases):
                yield alloc, config, steps
                continue
            for state, tower_steps in _tower_scripts(config, bases[idx], alloc[idx],
                                                     bound, pool, ones_cap, outcomes):
                result.states += 1
                if result.states > max_states:
                    return
                if bound is None or bound.admits([-c.self_int for c in state.curves]):
                    stack.append((state, steps + tower_steps, idx + 1))


def infer_plan(record: SurfaceRecord, base: Configuration,
               max_states: int = 200000, prune: bool = True) -> InferenceResult:
    """Recover a concrete blow-up plan realizing the record, by search.

    The number of blow-ups is forced by K^2; bracket patterns only rank the
    size allocations tried first.  Succeeds when some interpretation yields
    a marked surface whose chains are exactly the stated ones; the survivor
    is re-certified (ample check, K^2, obstruction) in the result report.
    """
    result = InferenceResult(record)
    targets = [tuple(c.chain) for c in record.chains]
    for spec in record.chains:
        sing = wahl_singularity(spec.chain)
        if sing is None:
            raise PlanError(f"({record.rid}): stated chain {list(spec.chain)} "
                            f"is not a Wahl chain")
        if sing.n != spec.n or spec.a not in (sing.a, sing.n - sing.a):
            raise PlanError(f"({record.rid}): stated ({spec.n},{spec.a}) does not "
                            f"match chain {list(spec.chain)} = ({sing.n},{sing.a})")
    bound = _DepthBound.of_chains(targets) if prune else None
    pool = _substring_pool(targets) if prune else None
    b_total = record.blowup_total
    if b_total < 0:
        raise PlanError(f"({record.rid}): negative blow-up count")
    # every exceptional curve ends inside a chain or as a surviving (-1);
    # with all base curves available for chains this bounds the survivors
    ones_total = b_total - sum(len(t) for t in targets) + len(base.curves)
    outcomes: dict = {}

    def run_bases(bases: list[PlanStep], hints: list[Optional[int]]) -> Optional[BlowupPlan]:
        ones_cap = ones_total - (len(bases) - 1) if prune else None
        if len(bases) > b_total or (ones_cap is not None and ones_cap < 1):
            return None  # every tower takes a blow-up and keeps a (-1)-curve
        for alloc, config, steps in _leaves(base, bases, _allocations(b_total, hints),
                                            bound, pool, ones_cap, outcomes, result,
                                            max_states):
            if mark_chains(config, targets) is not None:
                return BlowupPlan(steps)
            if len(result.near_misses) < 40:
                result.near_misses.append(
                    f"alloc {alloc}: executed but chains do not match")
        return None

    plan = None
    if record.steps:
        # a step always blows the first surviving node of its pair: the two
        # nodes of a doubly-meeting pair are interchangeable until one goes
        bases = []
        hints: list[Optional[int]] = []
        for spec in record.steps:
            pair = (spec.a, spec.b) if spec.a <= spec.b else (spec.b, spec.a)
            bases.append(PlanStep(pair[0], pair[1], 0))
            hints.append(len(spec.pattern) if spec.pattern is not None else 1)
        plan = run_bases(bases, hints)
    elif b_total == 0:
        plan = run_bases([], [])
    else:
        # free search over base-node choices of the forced size
        m = geography_check(len(record.chains), record.k2).nodes_to_blow_up
        prefix = _ChoicePrefix.of_chains(targets, bound) if prune else None
        for _, pairs in _base_choices(base, m, result, max_states, prefix):
            plan = run_bases([PlanStep(a, b) for a, b in pairs], [None] * m)
            if plan is not None:
                break

    if plan is None:
        if result.states > max_states:
            result.near_misses.append("state budget exhausted")
        elif not result.near_misses:
            result.near_misses.append("search space exhausted without a match")
        return result

    marked = mark_chains(plan.execute(base), targets)
    assert marked is not None
    result.plan = plan
    result.marked = marked
    result.report = surface_report(marked, base)
    return result


# -- construction search -------------------------------------------------------

@dataclass(frozen=True)
class SearchParams:
    k2: int
    max_chains: int
    max_blowups: int
    curve_pool: Optional[tuple[str, ...]] = None
    max_states: int = 500000
    max_results: int = 25


@dataclass
class SearchResult:
    records: list[SurfaceRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    states: int = 0
    exhausted: bool = False


def _greedy_mark(config: Configuration) -> Optional[MarkedSurface]:
    """Mark the components of the non-(-1) subgraph, if they are all chains.

    Components that are paths of (-2)-curves become ADE chains; paths whose
    string is a Wahl chain become Wahl chains; anything else fails.  Each
    path starts at its lexicographically smaller end.
    """
    names = {c.name for c in config.curves if c.self_int != -1}
    adjacency = {n: sorted(x for x in config.neighbors(n) if x in names)
                 for n in names}
    seen: set[str] = set()
    wahl: list[tuple[str, ...]] = []
    ade: list[tuple[str, ...]] = []
    for name in sorted(names):
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
        if len(comp) == 1:
            path = [name]
        elif len(ends) == 2:
            path = [min(ends)]
            while len(path) < len(comp):
                nxts = [x for x in adjacency[path[-1]] if x not in path]
                if len(nxts) != 1:
                    return None
                path.append(nxts[0])
        else:
            return None  # cycle or branch point
        for a, b in zip(path, path[1:]):
            if len(config.nodes_between(a, b)) != 1:
                return None
        entries = tuple(-config.curve(c).self_int for c in path)
        if all(b == 2 for b in entries):
            ade.append(tuple(path))
        elif wahl_singularity(entries) is not None:
            wahl.append(tuple(path))
        else:
            return None
    return _marked(config, wahl, ade)


def search_constructions(params: SearchParams, a0: Configuration,
                         prune: bool = True) -> SearchResult:
    """Enumerate ample constructions over subsets of the configuration.

    Deterministic: subsets, node choices and emitted records are all in
    canonical order.  Budget exhaustion is reported, partial results are
    still returned.
    """
    result = SearchResult()
    pool = sorted(params.curve_pool) if params.curve_pool else \
        sorted(c.name for c in a0.curves)
    for name in pool:
        a0.curve(name)
    found: set[tuple] = set()
    outcomes: dict = {}

    for p in range(1, params.max_chains + 1):
        geo = geography_check(p, params.k2)
        if not geo.admissible:
            result.notes.append(f"P={p}, K^2={params.k2} inadmissible by geography")
            continue
        if geo.r > len(pool):
            continue
        m = geo.nodes_to_blow_up
        # no Wahl chain of admissible length has an entry above 4K^2+4,
        # and no state has more than r + max_blowups curves
        bound = _DepthBound((4 * params.k2 + 4,) * (geo.r + params.max_blowups)) \
            if prune else None
        for subset in itertools.combinations(pool, geo.r):
            sub = a0.restrict(subset)
            if sub.t2 != geo.t2:
                continue
            base_det = det_exact(sub.intersection_matrix())
            if base_det == 0:
                continue
            for _, pairs in _base_choices(sub, m, result, params.max_states):
                bases = [PlanStep(a, b) for a, b in pairs]
                allocs = itertools.chain.from_iterable(
                    _allocations(total, [None] * m)
                    for total in range(m, params.max_blowups + 1))
                for alloc, config, steps in _leaves(sub, bases, allocs, bound, None, None,
                                                    outcomes, result, params.max_states):
                    _harvest(params, config, bases, alloc, subset, base_det,
                             result, found)
            if result.states > params.max_states:
                result.exhausted = True
                result.notes.append("state budget exhausted")
                return result
            if len(result.records) >= params.max_results:
                result.notes.append("result budget reached")
                return result
    return result


def _harvest(params: SearchParams, config: Configuration, bases, alloc,
             subset, base_det: int, result: SearchResult, found: set) -> None:
    marked = _greedy_mark(config)
    if marked is None or not marked.wahl_chains or marked.ade_chains:
        return
    if k_squared(marked) != params.k2:
        return
    if nef_ample_check(marked).status != "ample":
        return
    sings = tuple(sorted((s.n, min(s.a, s.n - s.a)) for s in marked.wahl_data()))
    key = (tuple(subset), sings)
    if key in found:
        return
    found.add(key)
    chains = []
    for chain in marked.wahl_chains:
        entries = tuple(-config.curve(c).self_int for c in chain)
        sing = wahl_singularity(entries)
        chains.append(ChainSpec(sing.n, sing.a, entries))
    # collapse the flat step list back into per-base-node specs:
    # tower i created exceptionals E{start+1}..E{start+alloc[i]}
    specs: list[BlowupSpec] = []
    start = 0
    for base_step, size in zip(bases, alloc):
        if size == 1:
            specs.append(BlowupSpec(base_step.a, base_step.b, None))
        else:
            pattern = tuple(-config.curve(f"E{start + j + 1}").self_int
                            for j in range(size))
            specs.append(BlowupSpec(base_step.a, base_step.b, pattern))
        start += size
    rid = f"{params.k2}.{len(found)}"
    result.records.append(SurfaceRecord(
        rid, params.k2, tuple(subset), base_det, tuple(specs), tuple(chains)))

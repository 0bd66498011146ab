"""Blow-up plan inference and bounded construction search.

The records name the base points blown up but encode the infinitely-near
part only through opaque bracket patterns, so a plan is recovered by
search.  Plan inference (`infer_plan`) and construction search
(`search_constructions`) share one search core:

- `_base_choices` enumerates the choices of base nodes to blow up, one per
  multiset of curve pairs, counting each choice and each prefix it cuts
  as one state.  It generates only the canonical choice of each multiset:
  deciding the nodes in id order, a node may be chosen only after the node
  before it on the same curve pair.  That is the first of its multiset
  among the combinations of node ids, so choices come in lexicographic
  order with no duplicate to drop;
- `_allocations` gives the tower sizes of a choice, as compositions of
  the blow-ups: all of them in search, those the stated chains pin
  (`_pins`) in inference;
- `_leaves` distributes the blow-ups over the chosen nodes (one allocation
  at a time), branches over the abstract outcomes of each tower
  (`_tower_outcomes`), and yields every completed search state.  It
  searches on integer states (`_State`): the depths of the base curves
  and of the exceptional curves, and each tower's gap script.

Both searches then run one leaf pipeline, and differ only in the chains
they accept.  First each leaf is decided on its integers (`_arm_test`).
A chain that a search keeps is L + M + R: M is a path of base curves
joined by surviving base nodes, found once per base-node choice
(`_tested_paths`), and L and R are the runs of tower curves that hang off
M's two ends, on either side of each tower's one (-1)-curve.  A leaf fails
once one such string is not a chain the search accepts: a Wahl chain in
search (no ADE chain is one), a stated chain, either way round, in
inference.  Only a leaf that passes has its towers named (`_tower_scripts`)
and its configuration built, by replaying its steps with
`BlowupPlan.execute`, and is marked on it by the one marker,
`_greedy_mark`, which marks each component of the non-(-1) graph as one
chain.  The marking names and orders the chains, and it also decides the
paths that meet a curve at -1 or above, which the arm test leaves alone.
Search keeps a leaf marked into Wahl chains and no ADE chain whose
canonical class is ample; inference keeps a leaf marked into the stated
chains (`mark_chains`, which the ledger runs on its frozen plans too).
Inference certifies its survivor on the configuration searched, in the
result's `report`; the ledger, which certifies on the whole of A0 instead,
runs the search alone (`_search_plan`).  Pruning only ever discards states
that provably cannot reach the chains sought.

Both searches run the same chain-shape rules, on one premise: every curve
of a kept leaf other than its (-1)-curves lies in a chain, as the marker
makes it.  A base curve at -2 or below (`_deep_curves`) only gets deeper,
so it lies in a chain, and a chain is a path of curves.  So the surviving
nodes between such curves must form disjoint simple paths, a rule checked
on every prefix of a base-node choice (`_base_choices`), and a state is
dropped once such a curve has more than two final non-(-1) neighbours (the
degree rule of `_leaves`).  On the same premise each such path, with its
arms, is one whole chain, which the arm test reads.  So its string sums to
3l + 1, as a Wahl chain of length l does (each end extension of [4] adds
one entry and 3), and a tower of size s adds 2 to a sum less 3l, c at one
side and 2 - c at the other, c in 2 - s, 4 - s, ..., s: the sum rule
(`_sum_rule`) drops each allocation whose sizes rule that out, before
`_leaves` places a tower.  A curve at -1 or above may end as a surviving
(-1)-curve, so it is exempt from all four.
Inference reads the same paths once more, before any tower is placed: each
must lie in a distinct stated chain, and the rest of that chain beyond each
end of the path is the arm one tower holds there, so the stated chains fix
the size of every tower whose sides are all at tested paths (`_pins`).  The
walk looks ahead to the degree rule and, in inference, to the pins: it cuts
a prefix once the nodes still to be chosen cannot bring every such curve
down to two surviving nodes (a curve's excess), or once a path it forms
fits no stated chain above its curves' floors.  Both counts are read off
one table of the nodes still undecided (`_base_choices`).  A
failing prefix is not extended, and it counts as one state, as a yielded
choice and a tower outcome do: every state counted is work done, so the
budget bounds time.  The state that goes over the budget raises
`_Exhausted`, which each search catches once: it stops at exactly
`max_states + 1` states, `exhausted`.  Search also caps every curve's
depth at 4K^2+4 in `_leaves`, since no Wahl chain of admissible length has
a deeper entry.  Inference has no cap: the substring pool keeps tower
curves at stated entries, and a leaf with a base curve deeper than every
stated entry fails the arm test or the marking.  With `prune=False` a
search runs no rule: no substring pool, no deep curves and no depth cap;
the arm test and the sum rule then test no path, no tower size is pinned,
and every leaf is marked.  A tower's abstract outcomes depend only on its
size, the substring pool and the depth cap; each search call memoises them
in its own table.  In both searches each tower keeps exactly one surviving
(-1)-curve (`_tower_outcomes`), so every blow-up of the tower lands next
to the newest curve, and the outcomes are walked forwards along it,
dropping a word once its finished runs leave the chains.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .assembly import (MarkedSurface, SurfaceReport, _paths, k_squared, nef_ample_check,
                       surface_report)
from .chains import recognize_wahl
from .configuration import Configuration, ConfigurationError, _pair, geography_check
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
        """The steps blown up in turn on `base` (`Configuration.blow_ups`);
        PlanError names the first step whose node is missing."""
        return base.blow_ups([(s.a, s.b, s.occurrence) for s in self.steps], PlanError)

    def __str__(self) -> str:
        return ", ".join(str(s) for s in self.steps)


@dataclass
class InferenceResult:
    record: SurfaceRecord
    plan: Optional[BlowupPlan] = None
    marked: Optional[MarkedSurface] = None
    report: Optional[SurfaceReport] = None  # None without a plan, or uncertified
    states: int = 0  # max_states + 1 when the budget stops the search
    pruned: int = 0  # failing base-choice prefixes, each also one state
    leaves: int = 0  # completed search states, whether or not they are marked
    exhausted: bool = False  # the state budget stopped the search

    @property
    def success(self) -> bool:
        return self.plan is not None

    def summary(self) -> str:
        if self.success:
            return (f"({self.record.rid}) plan found after {self.states} states: "
                    f"{self.plan}")
        why = "state budget exhausted" if self.exhausted else "search space exhausted"
        return (f"({self.record.rid}) no plan after {self.states} states "
                f"({self.pruned} pruned), {self.leaves} leaves: {why}")


# -- chain marking ------------------------------------------------------------

def mark_chains(config: Configuration, targets: Sequence[tuple[int, ...]]
                ) -> Optional[MarkedSurface]:
    """The greedy marking (`_greedy_mark`) as the stated chains, or None.

    The marking must have Wahl chains only, no ADE chain, and their
    strings must be the targets as a multiset, either way round.  Each
    chain is oriented as its target, equal targets taking their paths in
    the order of min(path, path[::-1]).  A greedy marking always passes
    `MarkedSurface`'s rules: each chain is a simple path whose consecutive
    curves share one node, and every node between two marked curves is an
    edge of such a path.
    """
    marking = _greedy_mark(config.self_int, config.meets)
    if marking is None or marking[1] or len(marking[0]) != len(targets):
        return None
    free = sorted(marking[0])  # each path starts at its smaller end
    oriented = []
    for target in map(tuple, targets):
        for path in free:
            string = tuple(-config.self_int[c] for c in path)
            if target in (string, string[::-1]):
                free.remove(path)
                oriented.append(path if string == target else path[::-1])
                break
        else:
            return None
    return MarkedSurface(config, tuple(oriented))


# -- the search core -----------------------------------------------------------

class _Exhausted(Exception):
    """A search's states went over its budget."""


def _spend(result, max_states: int, rejected: bool = False) -> None:
    """Count one state of `result`, a failing prefix also in `result.pruned`
    if `rejected`; raise `_Exhausted` once the states exceed `max_states`."""
    result.states += 1
    if result.states > max_states:
        raise _Exhausted
    result.pruned += rejected


def _substring_pool(targets: Sequence[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """All contiguous substrings of the stated chains, both orientations."""
    pool: set[tuple[int, ...]] = set()
    for target in targets:
        for chain in (tuple(target), tuple(reversed(target))):
            for i in range(len(chain)):
                for j in range(i + 1, len(chain) + 1):
                    pool.add(chain[i:j])
    return frozenset(pool)


def _tower_outcomes(size: int, pool) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The towers of `size` curves that keep one (-1), with their scripts, sorted.

    A tower lives on the local chain [c1', E..., c2']; a blow-up picks a
    gap (a surviving node), deepens its two sides and inserts a fresh
    (-1)-curve.  No two 1s of a tower string are ever adjacent (a fresh 1
    deepens both its neighbours), so no insertion lowers the number of 1s,
    and a tower that ends with one 1 has exactly one 1 throughout.  Each
    insertion therefore goes next to it, at gap k or k+1 for the 1 at k, a
    string has only one script, and every entry but the 1's two neighbours
    is final, all of them once the tower is complete.  The towers are walked
    depth first, and a word is dropped once its final runs leave the stated
    chains (`pool`, closed under substrings; None admits every run).

    Every tower keeps at least one survivor: its newest curve stays a
    (-1)-curve, since later towers sit on other base nodes.  One each is
    all either search can use:

    - `search_constructions` keeps a leaf only if its non-(-1) curves all
      lie in Wahl chains and K^2 = k2.  Such a leaf has r + B - sum(len) =
      r - K^2 = P + K^2 (-1)-curves, one per tower.
    - `infer_plan` keeps a leaf only if its non-(-1) curves all lie in
      the stated chains (`mark_chains`), so a leaf has r + B - sum(len)
      (-1)-curves; for a record that fits the geography that is one per
      tower.  A record outside that fit gets only the plans in which each
      tower keeps one (-1).
    """
    out = []
    stack: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = [((1,), 0, ())]
    while stack:
        xs, k, script = stack.pop()
        if len(xs) == size:
            out.append((xs, script))
            continue
        for gap in (k, k + 1):
            state = _insert(xs, gap)
            if len(state) == size:  # the runs beside the 1 are final
                left, right = state[:gap], state[gap + 1:]
            else:
                left, right = state[:max(gap - 1, 0)], state[gap + 2:]
            if pool is not None and ((left and left not in pool) or
                                     (right and right not in pool)):
                continue
            stack.append((state, gap, script + (gap,)))
    return sorted(out)


def _insert(xs: tuple[int, ...], gap: int) -> tuple[int, ...]:
    """The tower string after blowing up the node at `gap`."""
    new = list(xs)
    if gap > 0:
        new[gap - 1] += 1
    if gap < len(xs):
        new[gap] += 1
    new.insert(gap, 1)
    return tuple(new)


def _tower_scripts(base: PlanStep, count: int, script: tuple[int, ...]
                   ) -> tuple[PlanStep, ...]:
    """One tower's steps, named.

    The tower blows up the base node `base` on a configuration with `count`
    blow-ups so far, then the gaps of `script` (`_tower_outcomes`).  Its
    local chain [a, E..., b] names the curves in the order of its depth
    string, and its consecutive pairs are the tower's nodes.  Gap g of the
    local chain is the surviving node between neighbours g and g+1, and the
    curves there meet only inside the tower, so the steps follow from the
    local names alone: the node blown up is the newest between its two
    curves, occurrence (meetings - 1).  A self-node's base blow-up leaves
    (a, E) meeting twice.
    """
    local = [base.a, f"E{count + 1}", base.b]
    meets = Counter(_pair(u, v) for u, v in zip(local, local[1:]))
    steps = [base]
    for t, gap in enumerate(script):
        u, v = local[gap], local[gap + 1]
        pair = _pair(u, v)
        meets[pair] -= 1
        new = f"E{count + t + 2}"
        local.insert(gap + 1, new)
        meets[_pair(u, new)] += 1
        meets[_pair(new, v)] += 1
        steps.append(PlanStep(pair[0], pair[1], meets[pair]))
    return tuple(steps)


def _allocations(total: int, pins: Iterable[tuple[Optional[int], ...]]
                 ) -> Iterator[tuple[int, ...]]:
    """The tower sizes summing to `total` that some pin admits, each once, in
    lexicographic order.

    A pin gives each tower side its arm length (`_pins`: side 2i at
    `bases[i].a`, 2i + 1 at `.b`), or None where the side is free.  Tower
    i then has |L'| + 1 + |R'| curves: exactly that many if both its sides
    are pinned, and at least that many otherwise.  The pin with every side
    free admits every composition of `total` into positive sizes, and
    search uses only that one.  Lazy, so no composition space is built;
    both searches filter the allocations by `_sum_rule`.
    """
    # per pin, each tower's least size and whether it may be larger
    spans = {tuple((1 + (a or 0) + (b or 0), None in (a, b))
                   for a, b in zip(pin[::2], pin[1::2])) for pin in pins}

    def compositions(span: tuple[tuple[int, bool], ...]) -> Iterator[tuple[int, ...]]:
        least = [sum(low for low, _ in span[i:]) for i in range(len(span) + 1)]
        acc: list[int] = []

        def rec(i: int, left: int) -> Iterator[tuple[int, ...]]:
            if i == len(span):
                if left == 0:
                    yield tuple(acc)
                return
            low, free = span[i]
            for s in range(low, (left - least[i + 1] if free else low) + 1):
                acc.append(s)
                yield from rec(i + 1, left - s)
                acc.pop()
        return rec(0, total)

    if len(spans) == 1:  # as in search: nothing to merge
        return compositions(spans.pop())
    merged = heapq.merge(*map(compositions, spans))
    return (alloc for alloc, _ in itertools.groupby(merged))


def _base_choices(base: Configuration, m: int, result, max_states: int,
                  deep: frozenset = frozenset(), stated: Optional[set] = None
                  ) -> Iterator[tuple[tuple[int, ...], tuple[tuple[str, str], ...]]]:
    """Each choice of m base nodes to blow up, as node ids and curve pairs.

    Choices meeting the same multiset of curve pairs are isomorphic, so
    only the canonical one is generated: nodes are decided in id order, and
    a node may be chosen only if the node before it on the same curve pair
    is.

    Each prefix runs through the path rule over the curves `deep` (by
    default none, which admits every choice).  The rule reads the ruled
    nodes: the non-self nodes between two deep curves.  An unchosen one
    survives into every leaf as an edge of its non-(-1) graph, and on the
    premise of both searches (see the module docstring) it joins two
    consecutive curves of one chain.  So the unchosen ruled nodes must form
    disjoint simple paths, with degree at most 2 and no cycle (a second
    unchosen node on the same pair closes one).  The walk keeps only those
    paths, as each curve's `degree` and each path end's path read from that
    end (`runs`); choosing a node adds no edge and changes neither.
    Deciding more nodes only adds edges, so a prefix that fails has no
    feasible completion.

    A prefix decided up to position i has chosen, of the ruled nodes on a
    curve c, all less the undecided ones, `after[i][c]`, less the unchosen
    ones, `degree[c]`.  Two look-aheads read this count:

    - the excess of c, `after[i][c] + degree[c] - 2`, is how many of its
      undecided ruled nodes must still be chosen for its final degree to be
      at most 2.  A completion chooses `need` more nodes and each relieves
      at most two curves, so a prefix is cut, at the root and after each
      chosen node, once an excess exceeds `need` or the positive excesses
      sum to more than 2 `need`;
    - given the stated chains, both ways round (`stated`, as inference has
      them), each path that an unchosen node joins must lie in one of them
      as a contiguous run (`_starts`), every entry at least its curve's
      floor: its depth plus one per side of a chosen node on it.  That is
      what `_pins` asks of the final tested paths (`_tested_paths`), into
      which the paths only grow while the floors only rise, so only choices
      that `_pins` leaves no pin are dropped.  A path that may still grow
      into a curve that meets a curve at -1 or above through a base node
      may end untested, so the curves of its whole component under the rule
      are exempt.  Any other curve carries no unruled node but self-nodes,
      so its floor is its depth plus its chosen ruled nodes plus two per
      chosen self-node.

    Exactly the choices the path rule admits are yielded, in the same order
    as without the look-aheads, less those the fit drops.  Each yielded
    choice and each cut prefix (which has a completion: `room` stops the
    others) counts as one state of `result`, a cut prefix also in
    `result.pruned` (`_spend`); the state that exceeds `max_states` raises
    `_Exhausted`.
    """
    nodes = sorted(base.nodes, key=operator.attrgetter("id"))
    ids = [n.id for n in nodes]
    pairs = [n.pair() for n in nodes]
    # left[i][pair]: the nodes of each curve pair at position i or later
    left = [Counter(pairs[i:]) for i in range(len(nodes) + 1)]
    ruled = [not n.is_self_node and n.a in deep and n.b in deep for n in nodes]
    # after[i][c]: the ruled nodes on curve c at position i or later
    after = [Counter(c for j in range(i, len(nodes)) if ruled[j] for c in pairs[j])
             for i in range(len(nodes) + 1)]
    top: dict = {}  # a fitted curve -> its depth plus its ruled nodes
    if stated is not None:
        exempt = {c for a, b in pairs if (a in deep) != (b in deep) for c in (a, b)}
        grown = None
        while grown != exempt:  # the whole components under the rule
            grown, exempt = exempt, exempt | {
                c for (a, b), r in zip(pairs, ruled) if r and (a in exempt or b in exempt)
                for c in (a, b)}
        top = {c: after[0][c] - base.self_int[c] for c in deep - exempt}
        fit = functools.cache(lambda floors: any(_starts(floors, c) for c in stated))
        self_nodes = {j for j, (a, b) in enumerate(pairs) if a == b}

    def fits(path: tuple, i: int, chosen: tuple, degree: dict) -> bool:
        """Whether `path`, joined at node i, lies in a stated chain, every
        entry at least its curve's floor."""
        later = after[i + 1]
        doubled = [pairs[j][0] for j in chosen if j in self_nodes]
        return fit(tuple([top[c] - later.get(c, 0) - degree[c] + 2 * doubled.count(c)
                          for c in path]))

    def extend(i: int, chosen: tuple, closed: frozenset, room: int, degree: dict,
               runs: dict) -> Iterator[tuple[tuple[int, ...], tuple[tuple[str, str], ...]]]:
        """Complete a prefix decided up to i.

        `chosen` holds the positions chosen; `closed` holds the pairs with
        an unchosen node, whose later nodes stay unchosen; `room` counts
        the undecided nodes of the other pairs.
        """
        need = m - len(chosen)
        excess = [k for c, n in after[i].items() if (k := n + degree.get(c, 0) - 2) > 0]
        if excess and (max(excess) > need or sum(excess) > 2 * need):
            _spend(result, max_states, rejected=True)
            return
        while i < len(nodes):
            pair = pairs[i]
            if need and pair not in closed:
                yield from extend(i + 1, chosen + (i,), closed, room - 1, degree, runs)
                # leave node i unchosen, which closes its pair
                room -= left[i][pair]
                if room < need:
                    return
                closed = closed | {pair}
            if ruled[i]:
                a, b = pair
                degree = dict(degree)
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
                # a and b end paths (or are isolated): joining them closes a
                # cycle exactly when they end the same path
                run_a, run_b = runs.get(a, (a,)), runs.get(b, (b,))
                path = run_a[::-1] + run_b
                if degree[a] > 2 or degree[b] > 2 or run_a[-1] == b or (
                        a in top and not fits(path, i, chosen, degree)):
                    _spend(result, max_states, rejected=True)
                    return
                runs = dict(runs)
                runs[path[0]] = path
                runs[path[-1]] = path[::-1]
            i += 1
        _spend(result, max_states)
        yield tuple(ids[j] for j in chosen), tuple(sorted([pairs[j] for j in chosen]))

    if m <= len(nodes):
        yield from extend(0, (), frozenset(), len(nodes), {}, {})


def _deep_curves(base: Configuration) -> frozenset[str]:
    """The base curves at -2 or below, which blow-ups only deepen: none of
    them ends as a (-1)-curve that a marking leaves out."""
    return frozenset(c.name for c in base.curves if c.self_int <= -2)


class _State:
    """A search state in integers.

    `depths` are the depths (-C^2) of the base curves, in base order, and
    `exceptional` those of the exceptional curves so far, tower by tower;
    `script` is the gap script of the last tower placed (`_tower_outcomes`),
    `index` the number of towers placed and `count` the blow-ups so far.
    `degree` counts, for each base curve, its final non-(-1) neighbours so
    far among the ones the degree rule of `_leaves` reads.  The depths are
    read by search's depth cap in `_leaves`, and at a leaf by the arm test
    (`_arm_test`).
    """

    __slots__ = ("parent", "depths", "exceptional", "script", "index", "count", "degree")

    def __init__(self, parent: Optional["_State"], depths: tuple[int, ...],
                 exceptional: tuple[int, ...], script: tuple[int, ...], index: int,
                 count: int, degree: tuple[int, ...]) -> None:
        self.parent = parent
        self.depths = depths
        self.exceptional = exceptional
        self.script = script
        self.index = index
        self.count = count
        self.degree = degree

    def plan_steps(self, bases: Sequence[PlanStep]) -> tuple[PlanStep, ...]:
        """The steps of the towers on the way from the root, tower i on
        `bases[i]`, as `_leaves` placed them."""
        path = []
        state = self
        while state.parent is not None:
            path.append(state)
            state = state.parent
        return tuple(step for s in reversed(path) for step in
                     _tower_scripts(bases[s.index - 1], s.parent.count, s.script))


def _leaves(base: Configuration, bases: Sequence[PlanStep],
            allocs: Iterable[tuple[int, ...]], pool, outcomes: dict, result,
            max_states: int, deep: frozenset = frozenset(), cap: Optional[int] = None
            ) -> Iterator[tuple[tuple[int, ...], _State]]:
    """Every completed search state, with its allocation.

    For each allocation, blows alloc[i] times over the base node bases[i],
    depth first, one tower at a time, on integer states (`_State`).  Tower
    i is there when its pair meets in `base` more often than the towers
    before it on that pair use up; the base nodes left over survive in
    every leaf.  Each outcome of a tower counts as one state of `result`;
    the state that exceeds `max_states` raises `_Exhausted`.  Every leaf
    counts in `result.leaves`.  With a `cap`, no curve gets deeper than it:
    a tower with a deeper curve is no outcome, and a state with a deeper
    base curve is dropped, counted as a state (blow-ups only deepen curves).
    Nothing is named or built here: a tower is placed by its depth string,
    deepenings and gap script alone, and a leaf's configuration is
    `BlowupPlan(state.plan_steps(bases)).execute(base)`, which names the
    towers on the leaf's path only when it is read.
    `outcomes` is the caller's tower memo, which serves one `pool` and
    `cap`: it keeps the abstract outcomes of each tower size, with how much
    each deepens its two base curves.

    The degree rule drops a state once a curve of `deep` (the base curves
    at -2 or below, `_deep_curves`; empty for a search that does not prune)
    has more than two final non-(-1) neighbours.  On the premise of both
    searches (see the module docstring) such a curve lies in a chain, where
    it meets at most two other curves.  The neighbours counted are the
    curves of `deep` across its surviving nodes and the non-(-1) end curves
    of the towers on it: tower i attaches its string's first curve to
    `bases[i].a` and its last to `.b`, and later towers sit on other base
    nodes, so neither the curves nor their depths change after placement.
    A dropped state is still counted as a state.
    """
    names = [c.name for c in base.curves]
    position = {name: i for i, name in enumerate(names)}
    placed: Counter = Counter()
    available = []
    for step in bases:
        pair = _pair(step.a, step.b)
        available.append(step.occurrence < base.meets[pair] - placed[pair])
        placed[pair] += 1
    surviving = base.meets - placed
    is_deep = [name in deep for name in names]
    degree = [0] * len(names)
    for (a, b), k in surviving.items():
        ia, ib = position[a], position[b]
        if a != b and is_deep[ia] and is_deep[ib]:
            degree[ia] += k
            degree[ib] += k
    ends = [(position[step.a], position[step.b]) for step in bases]
    # the tower's curves take the names blow_up gives, which it refuses
    # where the base already has one
    taken = {name for name in names if name.startswith("E")}
    root = _State(None, tuple(-c.self_int for c in base.curves), (), (), 0,
                  base.blowup_count, tuple(degree))
    for alloc in allocs:
        stack: list[_State] = [root]
        while stack:
            state = stack.pop()
            idx = state.index
            if idx == len(bases):
                result.leaves += 1
                yield alloc, state
                continue
            if not available[idx]:
                continue
            count, size = state.count, alloc[idx]
            towers = outcomes.get(size)
            if towers is None:
                # a deepens once per gap 0; b once per last gap, t + 1 at step t
                towers = outcomes[size] = [
                    (xs, script, 1 + script.count(0),
                     1 + sum(gap == t + 1 for t, gap in enumerate(script)))
                    for xs, script in _tower_outcomes(size, pool)
                    if cap is None or max(xs) <= cap]
            if towers and taken:
                for k in range(count + 1, count + size + 1):
                    if f"E{k}" in taken:
                        raise ConfigurationError(f"exceptional name E{k} already taken")
            ia, ib = ends[idx]
            for xs, script, deepen_a, deepen_b in towers:
                result.states += 1
                if result.states > max_states:
                    raise _Exhausted
                degree = list(state.degree)
                degree[ia] += xs[0] != 1
                degree[ib] += xs[-1] != 1
                if (is_deep[ia] and degree[ia] > 2) or (is_deep[ib] and degree[ib] > 2):
                    continue
                depths = list(state.depths)
                depths[ia] += deepen_a
                depths[ib] += deepen_b
                if cap is None or max(depths) <= cap:
                    stack.append(_State(state, tuple(depths), state.exceptional + xs,
                                        script, idx + 1, count + size, tuple(degree)))


def infer_plan(record: SurfaceRecord, base: Configuration,
               max_states: int = 200000, prune: bool = True) -> InferenceResult:
    """Recover a concrete blow-up plan realizing the record by search
    (`_search_plan`), and certify the survivor on `base` in the result's
    `report` (ample check, K^2, obstruction, pi1)."""
    result = _search_plan(record, base, max_states, prune)
    if result.marked is not None:
        result.report = surface_report(result.marked, base)
    return result


def _search_plan(record: SurfaceRecord, base: Configuration,
                 max_states: int, prune: bool) -> InferenceResult:
    """The search of `infer_plan`, with no report.

    The number of blow-ups is forced by K^2.  The record's steps, if it
    has any, fix the base nodes blown up; otherwise the choices of P + K^2
    base nodes are walked (`_base_choices`), a prefix cut once the path
    rule fails or one of its look-aheads does: a curve's excess, or a path
    that fits no stated chain above its floors.  For each choice the
    stated chains pin the tower sizes (`_pins`), less those the sum rule
    drops (`_sum_rule`); bracket patterns are not read.  Succeeds when some
    interpretation yields a marked surface whose chains are exactly the
    stated ones.
    """
    if max_states < 0:
        raise PlanError(f"max_states must be nonnegative, got {max_states}")
    result = InferenceResult(record)
    targets = [tuple(c.chain) for c in record.chains]
    for spec in record.chains:
        sing = recognize_wahl(spec.chain)
        if sing is None:
            raise PlanError(f"({record.rid}): stated chain {list(spec.chain)} "
                            f"is not a Wahl chain")
        if sing.n != spec.n or spec.a not in (sing.a, sing.n - sing.a):
            raise PlanError(f"({record.rid}): stated ({spec.n},{spec.a}) does not "
                            f"match chain {list(spec.chain)} = ({sing.n},{sing.a})")
    pool = _substring_pool(targets) if prune else None
    deep = _deep_curves(base) if prune else frozenset()
    stated = {chain for t in targets for chain in (t, t[::-1])}
    b_total = record.blowup_total
    if b_total < 0:
        raise PlanError(f"({record.rid}): negative blow-up count")
    outcomes: dict = {}

    def run_bases(bases: list[PlanStep]) -> Optional[tuple[BlowupPlan, MarkedSurface]]:
        tested = _tested_paths(base, bases, deep)
        pins = _pins(base, bases, tested, targets) if tested is not None else ()
        if not pins:
            return None  # no leaf passes the arm test and the degree rule
        passes = _arm_test(base, bases, tested, stated.__contains__)
        allocs = filter(_sum_rule(base, bases, tested), _allocations(b_total, pins))
        for alloc, state in _leaves(base, bases, allocs, pool, outcomes, result,
                                    max_states, deep):
            if passes(alloc, state):
                plan = BlowupPlan(state.plan_steps(bases))
                marked = mark_chains(plan.execute(base), targets)
                if marked is not None:
                    return plan, marked
        return None

    found = None
    try:
        if record.steps:
            # a step always blows the first surviving node of its pair: the two
            # nodes of a doubly-meeting pair are interchangeable until one goes
            found = run_bases([PlanStep(*_pair(spec.a, spec.b)) for spec in record.steps])
        elif b_total == 0:
            found = run_bases([])
        else:
            # free search over base-node choices of the forced size
            m = geography_check(len(record.chains), record.k2).nodes_to_blow_up
            for _, pairs in _base_choices(base, m, result, max_states, deep, stated):
                found = run_bases([PlanStep(a, b) for a, b in pairs])
                if found is not None:
                    break
    except _Exhausted:
        result.exhausted = True
    if found is not None:
        result.plan, result.marked = found
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
    pruned: int = 0  # failing base-choice prefixes, each also one state
    leaves: int = 0  # completed search states
    marked: int = 0  # leaves marked greedily into Wahl chains and no ADE chain
    exhausted: bool = False


def _greedy_mark(self_int: dict[str, int], meets: Counter
                 ) -> Optional[tuple[tuple[tuple[str, ...], ...], tuple[tuple[str, ...], ...]]]:
    """Mark the components of the non-(-1) subgraph, if they are all chains.

    `self_int` maps each curve to its self-intersection and `meets` each
    curve pair, ordered as `_pair` orders it, to its number of nodes.
    Components that are paths of (-2)-curves become ADE chains; paths whose
    string is a Wahl chain become Wahl chains; anything else fails (a curve
    at self-intersection 0 or above is in no chain), as does a component
    that is no simple path (`_paths`).  Each path starts at its
    lexicographically smaller end.  Returns the Wahl and the ADE chains, or
    None.
    """
    paths = _paths(sorted(name for name, s in self_int.items() if s != -1), meets)
    if paths is None:
        return None
    wahl: list[tuple[str, ...]] = []
    ade: list[tuple[str, ...]] = []
    for path in paths:
        entries = tuple(-self_int[c] for c in path)
        if all(b == 2 for b in entries):
            ade.append(path)
        elif recognize_wahl(entries) is not None:
            wahl.append(path)
        else:
            return None
    return tuple(wahl), tuple(ade)


def _tested_paths(base: Configuration, bases: Sequence[PlanStep], deep: frozenset
                  ) -> Optional[list[tuple[str, ...]]]:
    """The paths of one base choice that the arm test reads, or None.

    The surviving nodes between base curves of `deep` form paths (`_paths`),
    found once per base-node choice.  A path that meets a curve at -1 or
    above through a surviving node is left out: that curve may end as a
    (-1)-curve or in the path's component.  None if the curves of `deep`
    meet in anything but paths (no path rule has run); with `deep` empty,
    as when a search does not prune, there is no path.
    """
    surviving = base.meets - Counter(_pair(step.a, step.b) for step in bases)
    paths = _paths(sorted(deep), surviving)
    if paths is None:
        return None
    shallow = {c for a, b in surviving if (a in deep) != (b in deep) for c in (a, b)}
    return [path for path in paths if shallow.isdisjoint(path)]


def _pins(base: Configuration, bases: Sequence[PlanStep],
          tested: Sequence[tuple[str, ...]], targets: Sequence[tuple[int, ...]]
          ) -> set[tuple[Optional[int], ...]]:
    """The tower arms that the stated chains leave one base choice.

    On the premise of both searches (see the module docstring) each tested
    path (`_tested_paths`) is the middle M of one chain L + M + R, and the
    arms L and R hang off its two ends, each held by one tower
    (`_arm_test`).  So each tested path is laid as a contiguous run of a
    stated chain, a distinct one per path, either way round, with every
    entry at least the depth its curve reaches once blown up: its depth in
    `base` plus one per tower side on it.  The remainder beyond each end of the run, if not empty,
    goes to one tower side at that end.  Every other side at a tested
    path's curve holds no arm, and a side at any other curve is free.

    Returns one pin per way to do this, each giving tower side 2i (at
    `bases[i].a`) and side 2i + 1 (at `.b`) its arm length, or None where
    it is free; `_allocations` reads them as tower sizes.  A leaf that
    passes the arm test and the degree rule of `_leaves` lays its tested
    paths so, and so has a size allocation some pin admits.  No tested
    path (no pruning) leaves one pin with every side free.
    """
    sides: dict[str, list[int]] = {}
    for i, step in enumerate(bases):
        sides.setdefault(step.a, []).append(2 * i)
        sides.setdefault(step.b, []).append(2 * i + 1)
    floor = {name: len(sides.get(name, ())) - s for name, s in base.self_int.items()}
    unlaid: list[Optional[int]] = [None] * (2 * len(bases))
    for c in itertools.chain.from_iterable(tested):
        for side in sides.get(c, ()):
            unlaid[side] = 0
    pins: set[tuple[Optional[int], ...]] = set()

    def lay(k: int, used: frozenset, pin: list[Optional[int]]) -> None:
        if k == len(tested):
            pins.add(tuple(pin))
            return
        path = tested[k]
        floors = [floor[c] for c in path]
        for j, target in enumerate(targets):
            if j in used:
                continue
            for chain in (target, target[::-1]):
                for start in _starts(floors, chain):
                    left, right = start, len(chain) - start - len(path)
                    for a in sides.get(path[0], ()) if left else (None,):
                        for b in sides.get(path[-1], ()) if right else (None,):
                            if a is not None and a == b:
                                continue
                            laid = list(pin)
                            if a is not None:
                                laid[a] = left
                            if b is not None:
                                laid[b] = right
                            lay(k + 1, used | {j}, laid)

    lay(0, frozenset(), unlaid)
    return pins


def _sum_rule(base: Configuration, bases: Sequence[PlanStep],
              tested: Optional[Sequence[tuple[str, ...]]]
              ) -> Callable[[tuple[int, ...]], bool]:
    """Whether an allocation of one base choice lets every tested string
    sum as a Wahl chain (see the module docstring).

    Tower i with its 1 at k gives c = deepen_a + sum(xs[:k]) - 3k to
    `bases[i].a`: 1 plus its blow-ups left of the 1 less those right of
    it.  By the degree rule every arm at a path's curve is in its string
    (`_arm_test`), so the towers with one side at the path make up what its
    curves and the towers with both sides there need: their sizes' sum s
    has the need's parity and 2 * their count - s <= need <= s.  None drops
    every allocation.
    """
    if tested is None:
        return lambda alloc: False
    rules = []
    for path in tested:
        sides = [(step.a in path) + (step.b in path) for step in bases]
        one = [i for i, n in enumerate(sides) if n == 1]
        need = 1 + sum(3 + base.self_int[c] for c in path) - 2 * sides.count(2)
        rules.append((need, 2 * len(one), one))

    def admits(alloc: tuple[int, ...]) -> bool:
        for need, least, one in rules:
            total = sum(alloc[i] for i in one)
            if total < need or (total - need) % 2 or least - total > need:
                return False
        return True
    return admits


def _starts(floors: Sequence[int], chain: Sequence[int]) -> list[int]:
    """Where `floors` lies in `chain` as a contiguous run, each entry at
    least its floor: the positions of the run's first entry."""
    return [start for start in range(len(chain) - len(floors) + 1)
            if all(map(operator.ge, chain[start:], floors))]


def _arm_test(base: Configuration, bases: Sequence[PlanStep],
              tested: Optional[Sequence[tuple[str, ...]]],
              accepts: Callable[[tuple[int, ...]], object]
              ) -> Callable[[tuple[int, ...], _State], bool]:
    """The leaf verdict of one base choice, read off a leaf's integers.

    Returns a test of a leaf (its allocation and state) that both searches
    run before they replay it.  It is False only for leaves whose
    marking the search rejects, on the premise of both searches (see the
    module docstring): every non-(-1) component of a kept leaf is one chain
    that the search accepts.  The surviving nodes between deep base curves
    form simple paths, and `tested` holds those the test reads
    (`_tested_paths`); on a leaf each path is one non-(-1) component
    with the tower arms that hang off its ends.  Tower i's string has
    exactly one 1, at k (`_tower_outcomes`): the run before it, xs[:k],
    hangs off `bases[i].a` and the run after it, read from the other end,
    xs[:k:-1], off `bases[i].b`.  A component's string is the arm at the
    path's first end reversed, the depths of the path's curves, then the
    arm at its last end (a one-curve path may carry one at each side).  By
    the degree rule of `_leaves`, run with the same deep curves, no other
    arm hangs off a path.  The test passes a leaf when `accepts` returns a
    true value for every such string, in the orientation just read:

    - search accepts the Wahl chains (`recognize_wahl`), which no all-2
      string (an ADE chain) is, so the test fails the leaves whose
      `_greedy_mark` fails or marks an ADE chain;
    - inference accepts the stated chains, either way round, so the test
      fails the leaves whose marking is not the stated chains
      (`mark_chains`).

    A path that meets a curve at -1 or above is not tested.
    So on a base whose curves are all deep the test passes exactly the
    leaves search marks, and otherwise the marker decides the leaves it
    passes.  If `tested` is None (the deep curves meet in anything but
    paths), no leaf passes: that shape stays in every leaf.  With no path
    tested, as when a search does not prune, every leaf passes.
    """
    if tested is None:
        return lambda alloc, state: False
    position = {c.name: i for i, c in enumerate(base.curves)}
    tested = [tuple(position[c] for c in path) for path in tested]
    ends = [(position[step.a], position[step.b]) for step in bases]

    def passes(alloc: tuple[int, ...], state: _State) -> bool:
        hanging: dict[int, list[tuple[int, ...]]] = {}
        start = 0
        for (ia, ib), size in zip(ends, alloc):
            xs = state.exceptional[start:start + size]
            start += size
            k = xs.index(1)
            if k:
                hanging.setdefault(ia, []).append(xs[:k])
            if k < size - 1:
                hanging.setdefault(ib, []).append(xs[:k:-1])
        depths = state.depths
        for path in tested:
            first = hanging.get(path[0], ())
            last = hanging.get(path[-1], ()) if len(path) > 1 else first[1:]
            string = ((first[0][::-1] if first else ())
                      + tuple(map(depths.__getitem__, path))
                      + (last[0] if last else ()))
            if not accepts(string):
                return False
        return True
    return passes


def _subsets(pool: Sequence[str], r: int, meets: Counter, t2: int
             ) -> Iterator[tuple[str, ...]]:
    """The r-subsets of the sorted `pool` whose curves meet in t2 nodes.

    Self-nodes count, and the subsets come in lexicographic order, as
    `itertools.combinations` gives them.  A subset grows one curve at a
    time with its node count; adding a curve only adds nodes, so a branch
    stops once the count exceeds t2, or once the k curves still to pick
    cannot reach t2 with the k largest gains left (`best`).
    """
    # table[j][i]: the nodes between pool[i] and pool[j], for i <= j; the
    # pool is sorted, so each pair comes ordered as `Node.pair` orders it
    table = [[meets.get((a, b), 0) for a in pool[:j + 1]] for j, b in enumerate(pool)]
    # a curve's gain, its self-nodes and nodes to every other pool curve,
    # bounds what it adds; best[j][k]: the k largest among pool[j:], summed
    gains = [sum(table[j]) + sum(table[i][j] for i in range(j + 1, len(pool)))
             for j in range(len(pool))]
    best = [list(itertools.accumulate(sorted(gains[j:], reverse=True), initial=0))
            for j in range(len(pool) + 1)]
    chosen: list[int] = []

    def extend(start: int, nodes: int) -> Iterator[tuple[str, ...]]:
        if len(chosen) == r:
            if nodes == t2:
                yield tuple(pool[i] for i in chosen)
            return
        k = r - len(chosen) - 1  # the curves to pick after pool[j]
        for j in range(start, len(pool) - k):
            if nodes + best[j][k + 1] < t2:
                return
            row = table[j]
            more = nodes + row[j] + sum(map(row.__getitem__, chosen))
            if t2 - best[j + 1][k] <= more <= t2:
                chosen.append(j)
                yield from extend(j + 1, more)
                chosen.pop()

    yield from extend(0, 0)


def search_constructions(params: SearchParams, a0: Configuration,
                         prune: bool = True) -> SearchResult:
    """Enumerate ample constructions over subsets of the configuration.

    Deterministic: subsets, node choices and emitted records are all in
    canonical order.  With no pool (None) every curve is drawn from; an
    empty pool raises `PlanError`.  A name repeated in the pool is searched
    once.  The search stops as soon as it holds `max_results` records.
    Budget exhaustion is reported, partial results are still returned.
    The sum rule (`_sum_rule`) filters each base choice's tower sizes, each
    leaf is decided on its integers (`_arm_test`), and only a leaf that
    passes is replayed and marked (`_harvest`).
    """
    for name in ("max_chains", "max_blowups", "max_states", "max_results"):
        if getattr(params, name) < 0:
            raise PlanError(f"{name} must be nonnegative, got {getattr(params, name)}")
    if params.curve_pool is None:
        pool = sorted(c.name for c in a0.curves)
    elif params.curve_pool:
        pool = sorted(set(params.curve_pool))
    else:
        raise PlanError("curve_pool must name at least one curve")
    result = SearchResult()
    a0.self_ints(pool)
    found: set[tuple] = set()
    outcomes: dict = {}  # the tower memo
    # no Wahl chain of admissible length has an entry above 4K^2+4
    cap = 4 * params.k2 + 4 if prune else None

    def full() -> bool:
        if len(result.records) < params.max_results:
            return False
        result.notes.append("result budget reached")
        return True

    if full():
        return result
    try:
        for p in range(1, params.max_chains + 1):
            geo = geography_check(p, params.k2)
            if not geo.admissible:
                result.notes.append(f"P={p}, K^2={params.k2} inadmissible by geography")
                continue
            if geo.r > len(pool):
                continue
            m = geo.nodes_to_blow_up
            for subset in _subsets(pool, geo.r, a0.meets, geo.t2):
                sub = a0.restrict(subset)
                base_det = sub.rank_det[1]
                if base_det == 0:
                    continue
                deep = _deep_curves(sub) if prune else frozenset()
                for _, pairs in _base_choices(sub, m, result, params.max_states, deep):
                    bases = [PlanStep(a, b) for a, b in pairs]
                    tested = _tested_paths(sub, bases, deep)
                    passes = _arm_test(sub, bases, tested, recognize_wahl)
                    allocs = filter(_sum_rule(sub, bases, tested),
                                    itertools.chain.from_iterable(
                                        _allocations(total, [(None,) * (2 * m)])
                                        for total in range(m, params.max_blowups + 1)))
                    for alloc, state in _leaves(sub, bases, allocs, None, outcomes,
                                                result, params.max_states, deep, cap):
                        if passes(alloc, state):
                            _harvest(params, sub, state, bases, alloc, subset, base_det,
                                     result, found)
                            if full():
                                return result
    except _Exhausted:
        result.exhausted = True
        result.notes.append("state budget exhausted")
    return result


def _harvest(params: SearchParams, sub: Configuration, state: _State, bases, alloc,
             subset, base_det: int, result: SearchResult, found: set) -> None:
    """Keep the leaf as a record if it marks greedily into Wahl chains alone,
    with the stated K^2, an ample canonical class and new singularities.

    The leaf is replayed on `sub` and marked on its configuration; a
    marking with Wahl chains and no ADE chain counts in `result.marked`.
    """
    config = BlowupPlan(state.plan_steps(bases)).execute(sub)
    marking = _greedy_mark(config.self_int, config.meets)
    if marking is None or not marking[0] or marking[1]:
        return
    result.marked += 1
    marked = MarkedSurface(config, marking[0])
    if k_squared(marked) != params.k2:
        return
    if nef_ample_check(marked).status != "ample":
        return
    data = marked.wahl_data()
    key = (tuple(subset), tuple(sorted((s.n, min(s.a, s.n - s.a)) for s in data)))
    if key in found:
        return
    found.add(key)
    chains = tuple(ChainSpec(s.n, s.a, s.chain) for s in data)
    # collapse the flat step list back into per-base-node specs:
    # tower i created exceptionals E{start+1}..E{start+alloc[i]}
    specs: list[BlowupSpec] = []
    start = 0
    for base_step, size in zip(bases, alloc):
        if size == 1:
            specs.append(BlowupSpec(base_step.a, base_step.b, None))
        else:
            pattern = tuple(-config.self_int[f"E{start + j + 1}"] for j in range(size))
            specs.append(BlowupSpec(base_step.a, base_step.b, pattern))
        start += size
    rid = f"{params.k2}.{len(found)}"
    result.records.append(SurfaceRecord(
        rid, params.k2, tuple(subset), base_det, tuple(specs), chains))

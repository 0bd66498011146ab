import dataclasses
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wahlkit.assembly import AssemblyError, MarkedSurface
from wahlkit.catalog.a0 import frozen_a0
from wahlkit.catalog.records import (BlowupSpec, ChainSpec, SurfaceRecord,
                                     format_record, parse_record)
from wahlkit.catalog.verify import load_expected, load_records
from wahlkit.chains import wahl_generate, wahl_singularity
from wahlkit.configuration import (Configuration, ConfigurationError, _pair,
                                   geography_check)
from wahlkit import plans
from wahlkit.plans import (BlowupPlan, PlanError, PlanStep, SearchParams,
                           _allocations, _base_choices, _deep_curves,
                           _substring_pool, infer_plan, mark_chains,
                           search_constructions)


@pytest.fixture(scope="module")
def a0():
    return frozen_a0()


@pytest.fixture(scope="module")
def records():
    by_id = {r.rid: r for r in load_records()}
    for k2, data in load_expected()["mains"].items():
        by_id[f"main{k2}"] = SurfaceRecord(
            f"main{k2}", int(k2), tuple(data["curves"]), data["det"], (),
            tuple(ChainSpec(c["n"], c["a"], tuple(c["chain"])) for c in data["chains"]))
    return by_id


def _nodes_to_blow_up(record):
    return geography_check(len(record.chains), record.k2).nodes_to_blow_up


def _combo_feasible(base, combo):
    """Oracle: the path rule of `_base_choices`, on a whole choice of base
    nodes, with neither of its look-aheads.

    Unblown non-self nodes between curves at -2 or below survive as edges
    of every leaf's non-(-1) graph, so they must form simple disjoint paths.
    """
    deep = {c.name for c in base.curves if c.self_int <= -2}
    chosen = set(combo)
    degree = {}
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for node in base.nodes:
        if node.id in chosen or node.is_self_node:
            continue
        if node.a not in deep or node.b not in deep:
            continue
        degree[node.a] = degree.get(node.a, 0) + 1
        degree[node.b] = degree.get(node.b, 0) + 1
        if degree[node.a] > 2 or degree[node.b] > 2:
            return False
        ra, rb = find(node.a), find(node.b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def _reference_choices(base, m, result, max_states):
    """Oracle: the first choice of each multiset of curve pairs, among all
    combinations of node ids, each counted as one state."""
    pair_of = {n.id: n.pair() for n in base.nodes}
    seen = set()
    for combo in itertools.combinations(sorted(pair_of), m):
        pairs = tuple(sorted(pair_of[nid] for nid in combo))
        if pairs in seen:
            continue
        seen.add(pairs)
        result.states += 1
        if result.states > max_states:
            return
        yield combo, pairs


def _reference_towers(size, pool):
    """Oracle: every tower of `size` curves, enumerated level by level.

    States that differ only in the script are merged, and a finished tower
    whose runs leave `pool` is dropped.
    """
    level = {(1,): ()}
    for _ in range(size - 1):
        nxt = {}
        for xs, script in sorted(level.items()):
            for gap in range(len(xs) + 1):
                state = _replay_script(script + (gap,))
                if state in nxt:
                    continue
                nxt[state] = script + (gap,)
        level = nxt
    return [(xs, script) for xs, script in sorted(level.items())
            if _runs_in_pool(xs, pool)]


def _runs_in_pool(xs, pool):
    """Oracle: every maximal run of entries other than 1 lies in `pool`, or
    `pool` is None."""
    return pool is None or all(tuple(run) in pool for one, run in
                               itertools.groupby(xs, lambda x: x == 1) if not one)


def _count_blow_ups(monkeypatch) -> list:
    """The steps every run of the blow-up engine replays, from now on."""
    calls = []
    blow_ups = Configuration.blow_ups

    def counted(config, steps, *args):
        steps = list(steps)
        calls.extend(steps)
        return blow_ups(config, steps, *args)

    monkeypatch.setattr(Configuration, "blow_ups", counted)
    return calls


def _reference_tower_scripts(config, base, size, pool, outcomes):
    """Oracle: replay each abstract tower outcome's script with `blow_up`.

    Gap g of the local chain is the newest node between its neighbours g
    and g+1; a script that finds no node there is dropped.
    """
    nodes = [n for n in config.nodes if n.pair() == _pair(base.a, base.b)]
    if base.occurrence >= len(nodes):
        return
    key = (size, pool)
    if key not in outcomes:
        outcomes[key] = plans._tower_outcomes(size, pool)
    for _, script in outcomes[key]:
        state = config.blow_up(nodes[base.occurrence].id)
        local = [base.a, f"E{state.blowup_count}", base.b]
        steps = [base]
        for gap in script:
            u, v = local[gap], local[gap + 1]
            between = [n for n in state.nodes if n.pair() == _pair(u, v)]
            if not between:
                break
            node = between[-1]
            state = state.blow_up(node.id)
            local.insert(gap + 1, f"E{state.blowup_count}")
            steps.append(PlanStep(min(node.a, node.b), max(node.a, node.b),
                                  len(between) - 1))
        else:
            yield state, tuple(steps)


def _reduce_script(final):
    """Oracle: an insertion script producing `final` from a single (-1), or None.

    Contracts 1-entries one at a time (neighbours decrement, boundaries
    absorb silently); a successful contraction order reversed is exactly
    the insertion script, gap g being the entry index of the inserted 1.
    """
    dead = set()

    def rec(state):
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
    return None if script is None else tuple(script)


def _replay_script(script):
    """Oracle: the tower string that an insertion script builds from a single
    (-1); each blow-up deepens both sides of its gap and inserts a 1."""
    xs = [1]
    for gap in script:
        if gap > 0:
            xs[gap - 1] += 1
        if gap < len(xs):
            xs[gap] += 1
        xs.insert(gap, 1)
    return tuple(xs)


def _reference_one_survivor(size, pool):
    """Oracle: every string run + (1,) + run of `size` entries, its runs taken
    from `pool` or empty, that contracts to one curve."""
    by_len = {}
    for run in [()] + sorted(pool):
        by_len.setdefault(len(run), []).append(run)
    out = []
    for left in itertools.chain.from_iterable(by_len.values()):
        for right in by_len.get(size - 1 - len(left), ()):
            final = left + (1,) + right
            script = _reduce_script(final)
            if script is not None:
                out.append((final, script))
    return sorted(out)


def _reference_leaves(base, bases, allocs, pool, result, max_states, deep=frozenset(),
                      cap=None):
    """Oracle: `_leaves` on concrete configurations, one per state.

    With a `cap`, a tower with a curve deeper than it is skipped uncounted,
    and a counted state with such a curve is not extended.
    """
    outcomes = {}
    base_names = {c.name for c in base.curves}
    # the base nodes that no tower blows up, by curve pair
    final = Counter(n.pair() for n in base.nodes) - Counter(
        (min(b.a, b.b), max(b.a, b.b)) for b in bases)
    for alloc in allocs:
        stack = [(base, (), 0)]
        while stack:
            config, steps, idx = stack.pop()
            if idx == len(bases):
                yield alloc, config, steps
                continue
            for state, tower_steps in _reference_tower_scripts(
                    config, bases[idx], alloc[idx], pool, outcomes):
                depths = {c.name: -c.self_int for c in state.curves}
                if cap is not None and any(depths[c.name] > cap for c in state.curves
                                           if c.name not in config.self_int):
                    continue
                result.states += 1
                if result.states > max_states:
                    return
                if cap is not None and max(depths.values()) > cap:
                    continue
                if _degree_admits(state, base_names, deep, final):
                    stack.append((state, steps + tower_steps, idx + 1))


def _degree_admits(config, base_names, deep, final):
    """Oracle for the degree rule, on a configuration with some towers placed.

    Every curve of `deep` that meets an exceptional curve (a tower is
    placed on it) has at most two neighbours that are not (-1)-curves in
    any leaf: the exceptional curves not at -1, and the curves of `deep`
    across the `final` nodes, which no tower blows up.  Nodes are counted
    with multiplicity, self-nodes not at all.
    """
    for name in deep:
        others = [node.a if node.b == name else node.b for node in config.nodes
                  if name in (node.a, node.b)]
        exceptional = [other for other in others if other not in base_names]
        if not exceptional:
            continue
        count = sum(config.curve(x).self_int != -1 for x in exceptional)
        count += sum(k for (a, b), k in final.items()
                     if a != b and name in (a, b) and a in deep and b in deep)
        if count > 2:
            return False
    return True


def _lockstep(leaves):
    """`leaves`, checked leaf by leaf and count by count against the oracle."""
    def checked(base, bases, allocs, pool, outcomes, result, max_states,
                deep=frozenset(), cap=None):
        allocs, ref_allocs = itertools.tee(allocs)
        ref = _Counts(states=result.states)
        want = _reference_leaves(base, bases, ref_allocs, pool, ref, max_states, deep,
                                 cap)
        try:
            for alloc, state in leaves(base, bases, allocs, pool, outcomes, result,
                                       max_states, deep, cap):
                steps = state.plan_steps(bases)
                assert (alloc, BlowupPlan(steps).execute(base), steps) == next(want)
                assert result.states == ref.states
                yield alloc, state
        except plans._Exhausted:
            # the oracle stops at the same state, the one over the budget
            assert next(want, None) is None
            assert result.states == ref.states == max_states + 1
            raise
        assert next(want, None) is None
        assert result.states == ref.states
    return checked


@dataclasses.dataclass
class _Counts:
    states: int = 0
    pruned: int = 0
    leaves: int = 0


# the Wahl strings with no entry above 6, by length
_WAHL_UP_TO_6 = {n: sorted(w for w in wahl_generate(n) if max(w) <= 6) for n in range(1, 7)}


@st.composite
def _small_stated(draw):
    """Up to six curves at -1 to -6, and one or two target strings.

    One or two chains are cut from an ordering of the curves; each gets a
    Wahl string of its length as its target, and mostly carries it.  Each
    target may be stated reversed.  Consecutive chain curves get a node (rarely left out), then
    up to four random nodes are added (self-nodes and repeats allowed).
    The curves past the last chain are mostly (-1)-curves.
    """
    n = draw(st.integers(1, 6))
    names = draw(st.permutations([f"C{i}" for i in range(n)]))
    self_int = {name: -draw(st.sampled_from((1, 1, 1, 2, 3, 4, 5, 6))) for name in names}
    cuts = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=2)))
    chains = [names[a:b] for a, b in zip([0] + cuts, cuts)]
    targets = []
    for chain in chains:
        string = draw(st.sampled_from(_WAHL_UP_TO_6[len(chain)]))
        if draw(st.integers(0, 4)):
            self_int.update((c, -b) for c, b in zip(chain, string))
        targets.append(string[::-1] if draw(st.booleans()) else string)
    nodes = [pair for chain in chains for pair in zip(chain, chain[1:])
             if draw(st.integers(0, 9))]
    nodes += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                           max_size=4))
    return list(self_int.items()), nodes, targets


class TestPlanExecution:
    def test_execute_and_missing_node(self):
        cfg = Configuration.build([("A", -2), ("B", -2)], [("A", "B")])
        out = BlowupPlan((PlanStep("A", "B"),)).execute(cfg)
        assert out.blowup_count == 1
        with pytest.raises(PlanError):
            BlowupPlan((PlanStep("A", "B", 1),)).execute(cfg)

    def test_mark_chains_orients_to_target(self):
        cfg = Configuration.build([("P", -2), ("Q", -5)], [("P", "Q")])
        ms = mark_chains(cfg, [(5, 2)])
        assert ms.wahl_chains == (("Q", "P"),)
        assert mark_chains(cfg, [(6, 2)]) is None

    def test_mark_chains_leaves_only_minus_one_and_two_curves(self):
        cfg = Configuration.build([("P", -2), ("Q", -5), ("R", -3)], [("P", "Q")])
        assert mark_chains(cfg, [(5, 2)]) is None
        assert mark_chains(cfg.restrict(["P", "Q"]), [(5, 2)]) is not None

    @settings(max_examples=200, deadline=None)
    @given(_small_stated())
    def test_mark_chains_matches_the_reference_marker(self, case):
        curves, nodes, targets = case
        _checked_marking(Configuration.build(curves, nodes), targets)


class TestInference:
    def test_record_2_1(self, a0, records):
        record = records["2.1"]
        result = infer_plan(record, a0.restrict(record.curves))
        assert result.success
        report = result.report
        assert report.k2 == 2
        assert report.ample.status == "ample"
        assert report.obstruction == 0
        assert sorted(report.singularities) == ["1/121(1,32)", "1/64(1,23)"]
        assert report.pi1.status == "trivial"
        assert str(result.plan) == ("C1*C2, C2*D1, A2*B1, B1*E3, B1*E4, "
                                    "A3*C1, C1*E6")

    def test_record_2_2_t_join(self, a0, records):
        record = records["2.2"]
        result = infer_plan(record, a0.restrict(record.curves))
        assert result.success
        report = result.report
        assert report.k2 == 2 and report.obstruction == 0
        assert report.ample.status == "nef-only"
        assert report.ample.canonical_ample
        joint = report.ample.contractions[0]
        assert (joint.result.m, joint.result.q) == (648, 251)
        assert str(result.plan) == ("A3*C1, A2*B1, C1*C2, C1*E3, A2*C1, "
                                    "A2*E5, A2*E6, E6*E7, E7*E8, E8*E9")

    def test_replay_deterministic(self, a0, records):
        record = records["2.1"]
        base = a0.restrict(record.curves)
        first = infer_plan(record, base)
        second = infer_plan(record, base)
        assert first.plan == second.plan
        replayed = first.plan.execute(base)
        ms = mark_chains(replayed, [tuple(c.chain) for c in record.chains])
        assert ms is not None
        assert [(-ms.surface.curve(c).self_int for c in ch) is not None
                for ch in ms.wahl_chains]

    def test_trivial_record_zero_blowups(self):
        cfg = Configuration.build([("W", -4)], [])
        record = SurfaceRecord("0.1", 1, ("W",), -4, (), (ChainSpec(2, 1, (4,)),))
        result = infer_plan(record, cfg)
        assert result.success
        assert result.plan.steps == ()
        assert result.report.k2 == 1

    def test_non_wahl_claim_rejected_before_search(self):
        cfg = Configuration.build([("W", -4)], [])
        record = SurfaceRecord("0.2", 2, ("W",), -4, (),
                               (ChainSpec(2, 1, (4, 4)),))
        with pytest.raises(PlanError):
            infer_plan(record, cfg)

    def test_claim_with_an_entry_below_2_rejected_before_search(self, a0, records):
        # (2.1) with its chain [3, 5, 3, 2] written as [1, 5, 3, 2]
        record = records["2.1"]
        record = dataclasses.replace(
            record, chains=(record.chains[0], ChainSpec(8, 3, (1, 5, 3, 2))))
        with pytest.raises(PlanError, match=r"stated chain \[1, 5, 3, 2\] is not a Wahl"):
            infer_plan(record, a0.restrict(record.curves))

    def test_wrong_na_claim_rejected(self):
        cfg = Configuration.build([("W", -4)], [])
        record = SurfaceRecord("0.3", 1, ("W",), -4, (),
                               (ChainSpec(3, 1, (4,)),))
        with pytest.raises(PlanError):
            infer_plan(record, cfg)

    def test_impossible_record_reports_ambiguity(self, a0, records):
        base = records["2.1"]
        # claim the wrong chains for the right curve set: must fail loudly
        record = SurfaceRecord("2.9", 2, base.curves, base.det, base.steps,
                               (ChainSpec(3, 1, (5, 2)), ChainSpec(8, 3, (3, 5, 3, 2))))
        result = infer_plan(record, a0.restrict(record.curves),
                            max_states=20000)
        assert not result.success
        assert result.summary().startswith("(2.9) no plan after ")

    def test_state_budget_bounds_base_node_choices(self, a0, records):
        # free inference of (8.1) rejects 1,916 base-choice prefixes; each
        # counts as a state, so a small budget stops it
        record = dataclasses.replace(records["8.1"], steps=())
        result = infer_plan(record, a0.restrict(record.curves), max_states=1000)
        assert not result.success and result.exhausted
        assert result.states == 1001

    def test_negative_budget_rejected(self, a0, records):
        record = records["2.1"]
        with pytest.raises(PlanError, match="max_states must be nonnegative"):
            infer_plan(record, a0.restrict(record.curves), max_states=-5)
        # a zero budget stops the search at its first state
        result = infer_plan(record, a0.restrict(record.curves), max_states=0)
        assert not result.success and result.states == 1
        assert result.exhausted

    # hinted inference of every record: the states and the plan found
    HINTED = {
        "3.0": (9, "C1*C2, C1*C2, A3*C1, A3*E3, A3*E4, A2*C3, A2*B1, A2*E7"),
        "2.1": (8, "C1*C2, C2*D1, A2*B1, B1*E3, B1*E4, A3*C1, C1*E6"),
        "2.2": (12, "A3*C1, A2*B1, C1*C2, C1*E3, A2*C1, A2*E5, A2*E6, E6*E7, E7*E8, "
                    "E8*E9"),
        "2.3": (19, "A2*C1, C1*C2, B3*D1, D1*E3, D1*E4, A2*B1, A2*E6, E6*E7, E7*E8, "
                    "E7*E9"),
        "3.1": (6, "C1*C2, A4*C1, B2*D3, A1*C3, A1*C1, A1*E5, E5*E6, E6*E7, E7*E8, "
                   "E8*E9, E10*E9"),
        "3.2": (26, "A2*C3, A1*B2, A2*C1, A4*C1, A4*E4, A4*E5, A1*C1, A1*E7, E7*E8, "
                    "E7*E9"),
        "4.1": (8, "C1*C2, C1*C2, A2*F1, A3*B1, A2*B1, A2*E5, C2*D4, C2*E7"),
        "4.2": (8, "C1*C2, A2*C1, A4*C1, B1*D2, F2*F3, E5*F3, C1*C2, C2*E7, E7*E8, "
                   "E8*E9, E10*E9, E11*E9, E11*E12, E12*E13"),
        "4.3": (8, "C1*C2, A2*C1, A4*C1, B1*D2, F2*F3, E5*F3, A3*B1, B1*E7, E7*E8, "
                   "E8*E9, E10*E8, E10*E11, E11*E12"),
        "4.4": (8, "C1*C2, C1*C2, B4*D3, A2*F1, A4*C1, C1*E5, A2*C1, A2*E7, A2*E8, "
                   "A2*E9, E10*E9, E11*E9, E11*E12, E12*E13, E13*E14, E14*E15"),
        "5.1": (10, "C1*C2, A2*C1, A4*C1, A2*B1, A2*F1, A3*B1, A3*C3, C3*E7, C3*E8"),
        "5.2": (8, "A2*F1, C1*C2, A1*C1, A3*C1, C2*D4, B4*D3, A2*C1, A2*E7, A2*E8, "
                   "E8*E9, E10*E9, E11*E9, E11*E12, E12*E13, E13*E14, E14*E15, E15*E16"),
        "5.3": (11, "A2*F1, C1*C2, C2*D2, C2*D3, B4*D4, A2*F9, A2*E6, A2*C1, C1*E8, "
                    "E8*E9, E10*E8, E11*E8, E11*E12, E12*E13, E13*E14, E14*E15, "
                    "E15*E16"),
        "5.4": (11, "A2*F1, C1*C2, C2*D2, C2*D3, B4*D4, A2*F9, A2*E6, B1*D2, D2*E8, "
                    "D2*E9, D2*E10, E10*E11, E11*E12, E12*E13, E13*E14, E14*E15"),
        "6.1": (9, "C1*C2, A2*C1, A3*C1, A1*F15, A2*F1, A2*C3, A2*B3, A3*C3, A3*E8"),
        "6.2": (11, "C1*C2, A1*C1, A3*C1, A2*C3, A2*B1, A3*F13, D1*F11, A3*B1, B1*E8, "
                    "E8*E9, E10*E9, E10*E11, E11*E12, E12*E13, E12*E14, E12*E15, "
                    "E15*E16, E16*E17, E16*E18, E18*E19"),
        "6.3": (17, "A2*F1, A1*F7, C1*C2, A2*C1, A3*C1, A2*C3, B1*D1, A3*B1, B1*E8, "
                    "E8*E9, E10*E8, E11*E8"),
        "6.4": (13, "A2*F1, A1*F7, C1*C2, A2*C1, A3*C1, A2*C3, B1*D1, F1*F8, E8*F1, "
                    "E9*F1, E10*F1"),
        "7.1": (10, "C1*C2, C1*C2, A3*C1, A4*C1, A3*B1, B4*D3, A2*B1, F1*F2, D3*F1, "
                    "D3*E9"),
        "7.2": (15, "A3*F5, D1*F7, C1*C2, A1*C1, A2*C1, C2*D3, A3*B1, F1*F2, E8*F1, "
                    "E9*F1, A2*B1, B1*E11, E11*E12, E12*E13, E13*E14, E13*E15, "
                    "E15*E16, E16*E17, E16*E18, E16*E19, E19*E20, E20*E21, E20*E22"),
        "7.3": (13, "A3*F5, D1*F7, C1*C2, A1*C1, A2*C1, C2*D3, A3*B1, F1*F2, E8*F1, "
                    "E9*F1, A1*B4, A1*E11, E11*E12, E12*E13, E12*E14, E14*E15, "
                    "E15*E16, E15*E17, E15*E18, E18*E19, E19*E20, E19*E21"),
        "8.1": (10, "A2*F1, A4*F3, D1*F7, C1*C2, C1*C2, A2*C1, C2*D3, B1*D2, A1*B4, "
                    "D3*F1"),
        "8.2": (11, "D1*F7, C1*C2, A1*C1, C2*D1, C2*D2, C4*D2, B1*D1, A2*F9, D2*F15, "
                    "C4*D1, C4*E10, C4*E11, E11*E12, E11*E13, E11*E14, E14*E15, "
                    "E15*E16, E15*E17, E17*E18, E18*E19, E19*E20, E20*E21, E21*E22, "
                    "E22*E23, E22*E24, E22*E25"),
        "8.3": (12, "A2*F1, D1*F7, C1*C2, A1*C1, C2*D1, B1*D2, D2*F15, C4*D2, D1*F11, "
                    "D1*E9, C2*D2, D2*E11, E11*E12, E12*E13, E12*E14, E14*E15, "
                    "E15*E16, E16*E17, E17*E18, E18*E19, E19*E20, E19*E21, E19*E22, "
                    "E19*E23, E23*E24, E24*E25"),
        "8.4": (12, "A2*F1, D1*F7, C1*C2, A1*C1, C2*D1, B1*D2, D2*F15, C4*D2, D1*F11, "
                    "D1*E9, F1*F2, E11*F1, E12*F1, E12*E13, E13*E14, E14*E15, "
                    "E15*E16, E16*E17, E17*E18, E17*E19, E17*E20, E17*E21, E21*E22, "
                    "E22*E23"),
        "9.1": (18, "D2*F3, A3*F5, D1*F7, C1*C2, C1*C2, A2*C1, A2*B1, B1*D1, D2*F15, "
                    "A1*F15, A2*F1, A2*E11, A2*E12, E12*E13, E12*E14"),
        "9.2": (18, "D2*F3, A3*F5, D1*F7, C1*C2, C1*C2, A2*C1, A2*B1, B1*D1, D2*F15, "
                    "A1*F7, A2*F9, A2*E11, A2*E12, E12*E13, E13*E14, E13*E15, "
                    "E15*E16, E16*E17, E16*E18, E18*E19, E18*E20"),
        "9.3": (17, "A2*F1, D3*F1, F3*F4, A1*F7, C1*C2, A1*C1, A3*C1, C2*D2, C2*D3, "
                    "D2*F15, E10*F15, A3*F13, A3*E12, A3*E13, E13*E14"),
        "9.4": (15, "D2*F3, A3*F5, D1*F7, C1*C2, C1*C2, A3*C1, A2*B1, B1*D2, D1*F11, "
                    "A2*F1, A2*E10, A2*E11, F10*F11, E13*F11, E14*F11, E15*F11, "
                    "E15*E16, E15*E17, E17*E18, E18*E19, E18*E20, E20*E21, E21*E22, "
                    "E21*E23, E23*E24, E24*E25, E24*E26, E26*E27, E27*E28, E27*E29"),
    }

    @pytest.mark.parametrize("rid", list(HINTED))
    def test_hinted_inference_golden(self, a0, records, rid):
        record = records[rid]
        result = infer_plan(record, a0.restrict(record.curves))
        assert (result.states, str(result.plan)) == self.HINTED[rid]

    # the eight cases of the benchmark's free_infer workload, with the
    # base-choice prefixes each rejects and the states each takes
    FREE_PRUNED = {"2.1": 17, "2.2": 13, "3.2": 6, "4.1": 23, "5.1": 259,
                   "6.1": 396, "7.1": 261, "main2": 12}
    FREE_STATES = {"2.1": 35, "2.2": 40, "3.2": 70, "4.1": 44, "5.1": 291,
                   "6.1": 406, "7.1": 272, "main2": 25}
    # the state counts without the degree rule of `_leaves`, which finds the
    # same plans
    UNSHAPED = {"2.1": 53, "2.2": 56, "3.2": 174, "4.1": 50, "5.1": 314,
                "6.1": 407, "7.1": 273, "main2": 25}
    FREE_PLANS = {
        "2.1": "A2*B1, B1*E1, B1*E2, A3*C1, C1*E4, C1*C2, C2*D1",
        "2.2": "A2*B1, A2*C1, A2*E2, A2*E3, E3*E4, E4*E5, E5*E6, A3*C1, C1*C2, C1*E9",
        "3.2": "A1*B2, A1*C1, C1*E2, E2*E3, E2*E4, A1*C3, C3*E6, C3*E7, A2*C1, A4*B2",
        "4.1": "A2*B1, A2*E1, A2*F1, A3*B1, C1*C2, C1*C2, C2*D4, C2*E7",
        "5.1": "A2*B1, A2*C1, A2*F1, A3*B1, A3*C3, C3*E5, C3*E6, A4*C1, C1*C2",
        "6.1": "A1*F15, A2*B1, A2*C1, A2*C3, A2*F1, A3*C1, A3*C3, A3*E7, C1*C2",
        "7.1": "A2*B1, A3*B1, A3*C1, A4*C1, B4*D3, C1*C2, C1*C2, D3*F1, D3*E8, F1*F2",
        "main2": "A2*B1, A2*C1, B1*D1, C1*C2, C2*E4, C2*E5",
    }

    @pytest.mark.parametrize("rid", list(FREE_PLANS))
    def test_free_inference_golden(self, a0, records, monkeypatch, rid):
        record = dataclasses.replace(records[rid], steps=())
        result = infer_plan(record, a0.restrict(record.curves))
        assert result.success and not result.exhausted
        assert result.states == self.FREE_STATES[rid]
        assert str(result.plan) == self.FREE_PLANS[rid]
        assert result.pruned == self.FREE_PRUNED[rid]
        assert 0 < result.pruned < result.states
        leaves = plans._leaves
        monkeypatch.setattr(plans, "_leaves",
                            lambda *args: leaves(*args[:-1], frozenset()))
        without = infer_plan(record, a0.restrict(record.curves))
        assert (without.states, str(without.plan)) == (self.UNSHAPED[rid],
                                                       self.FREE_PLANS[rid])
        assert without.marked.wahl_chains == result.marked.wahl_chains

    # every record and every main; the stated chains pin the tower sizes of
    # each base choice (`_pins`)
    SOLVED = [r.rid for r in load_records()] + [f"main{k2}" for k2 in range(2, 10)]

    @pytest.mark.parametrize("rid", SOLVED)
    def test_free_inference_within_the_default_budget(self, a0, records, rid):
        # most of these searches' states are rejected base-choice prefixes,
        # each counted once; each main recovers its frozen plan
        record = dataclasses.replace(records[rid], steps=())
        result = infer_plan(record, a0.restrict(record.curves))
        assert result.success
        assert result.report.k2 == record.k2
        if rid.startswith("main"):
            frozen = load_expected()["mains"][rid[len("main"):]]["recovered_plan"]
            assert result.plan == BlowupPlan(tuple(PlanStep(a, b, occ)
                                                   for a, b, occ in frozen))

    def test_free_inference_budget_counts(self, a0, records):
        # rejected base-choice prefixes, and 2 choices that no pin admits,
        # exhaust the budget before any leaf (the only one is the last of
        # its 1,929 states)
        record = dataclasses.replace(records["8.1"], steps=())
        result = infer_plan(record, a0.restrict(record.curves), max_states=1800)
        assert not result.success
        assert (result.states, result.pruned, result.leaves) == (1801, 1798, 0)
        assert result.summary() == ("(8.1) no plan after 1801 states (1798 pruned), "
                                    "0 leaves: state budget exhausted")
        # towers exhaust the budget, and no base-node choice counts after them
        record = dataclasses.replace(records["2.1"], steps=())
        result = infer_plan(record, a0.restrict(record.curves), max_states=30)
        assert not result.success and result.exhausted
        assert result.states == 31

    @pytest.mark.parametrize("search, budget", [
        ("5.1", 284), ("2.1-hinted", 5), ("bench", 1000), ("bench", 4000),
    ], ids=["towers-5.1", "hinted", "search-1000", "search-4000"])
    def test_budget_stops_one_state_over(self, a0, records, monkeypatch, search,
                                         budget):
        # as above: whichever layer spends the last state, an exhausted
        # search counts exactly one state over its budget and says so
        stops = []
        if search == "5.1":
            # the budget must run out in a tower, not in the base-choice walk
            leaves = plans._leaves

            def watched(*args):
                try:
                    yield from leaves(*args)
                except plans._Exhausted:
                    stops.append("towers")
                    raise

            monkeypatch.setattr(plans, "_leaves", watched)
        if search == "bench":
            params = dataclasses.replace(TestSearch.BENCH, max_states=budget)
            result = search_constructions(params, a0)
            assert result.notes[-1] == "state budget exhausted"
        else:
            record = records[search.split("-")[0]]
            if not search.endswith("-hinted"):
                record = dataclasses.replace(record, steps=())
            result = infer_plan(record, a0.restrict(record.curves), max_states=budget)
            assert not result.success
            assert result.summary().endswith(": state budget exhausted")
        assert result.exhausted and result.states == budget + 1
        assert stops == (["towers"] if search == "5.1" else [])

    FROZEN = {k2: main for k2, main in load_expected()["mains"].items()
              if "recovered_plan" in main}

    @pytest.mark.parametrize("k2", list(FROZEN))
    def test_frozen_plan_marks_on_the_bare_curves(self, a0, k2):
        # each frozen plan replays on the main's own curves into its stated
        # chains, and each of its towers keeps exactly one (-1)-curve
        main = self.FROZEN[k2]
        base = a0.restrict(main["curves"])
        steps = main["recovered_plan"]
        config = BlowupPlan(tuple(PlanStep(*step) for step in steps)).execute(base)
        targets = [tuple(c["chain"]) for c in main["chains"]]
        chains = mark_chains(config, targets).wahl_chains
        assert [tuple(-config.curve(c).self_int for c in chain) for chain in chains] == \
            targets
        tower = {}  # exceptional curve -> its tower, numbered in plan order
        for k, step in enumerate(steps, start=base.blowup_count + 1):
            inside = {tower[c] for c in step[:2] if c in tower}
            assert len(inside) <= 1
            tower[f"E{k}"] = inside.pop() if inside else len(set(tower.values()))
        ones = Counter(tower.get(c.name) for c in config.curves if c.self_int == -1)
        assert ones == Counter(range(len(set(tower.values()))))

    def test_tower_outcomes_computed_once_per_call(self, a0, records, monkeypatch):
        calls = []
        enumerate_towers = plans._tower_outcomes

        def counted(*key):
            calls.append(key)
            return enumerate_towers(*key)

        monkeypatch.setattr(plans, "_tower_outcomes", counted)
        record = records["2.1"]
        base = a0.restrict(record.curves)
        for _ in range(2):
            calls.clear()
            assert infer_plan(record, base).success
            assert calls and len(calls) == len(set(calls))

    def test_blow_ups_only_for_the_marked_leaf(self, a0, records, monkeypatch):
        # leaves are decided on their integers, and only the leaf that passes
        # the arm test is replayed and marked: its 10 blow-ups
        calls = _count_blow_ups(monkeypatch)
        record = dataclasses.replace(records["2.2"], steps=())
        result = infer_plan(record, a0.restrict(record.curves))
        assert result.success and result.states == 40
        assert 0 < result.leaves < result.states
        assert len(calls) == record.blowup_total

    def test_failed_summary_counts_leaves(self, a0, records):
        record = dataclasses.replace(records["2.1"], steps=())
        result = infer_plan(record, a0.restrict(record.curves), max_states=31)
        assert not result.success and result.leaves > 0
        assert f", {result.leaves} leaves: " in result.summary()

    def test_pruning_soundness_on_inference(self, a0, records):
        record = records["2.1"]
        base = a0.restrict(record.curves)
        pruned = infer_plan(record, base, prune=True)
        unpruned = infer_plan(record, base, prune=False)
        assert pruned.success and unpruned.success
        for result in (pruned, unpruned):
            ms = mark_chains(result.plan.execute(base),
                             [tuple(c.chain) for c in record.chains])
            assert sorted((s.n, s.a) for s in ms.wahl_data()) == [(8, 3), (11, 3)]


    @pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
    def test_prune_sets_the_deep_curves_of_both_rules(self, a0, records, monkeypatch,
                                                      prune):
        # one datum turns both chain-shape rules on or off: the base curves
        # at -2 or below that the path rule and the degree rule read.  Only
        # inference fits the paths to chains, its stated ones both ways round
        seen = []
        fits = []
        leaves, base_choices = plans._leaves, plans._base_choices

        def recording_leaves(base, bases, allocs, pool, outcomes, result, max_states,
                             deep=frozenset(), cap=None):
            seen.append((base, deep))
            return leaves(base, bases, allocs, pool, outcomes, result, max_states, deep,
                          cap)

        def recording_choices(base, m, result, max_states, deep=frozenset(), stated=None):
            seen.append((base, deep))
            fits.append(stated)
            return base_choices(base, m, result, max_states, deep, stated)

        monkeypatch.setattr(plans, "_leaves", recording_leaves)
        monkeypatch.setattr(plans, "_base_choices", recording_choices)
        record = dataclasses.replace(records["2.1"], steps=())
        infer_plan(record, a0.restrict(record.curves), max_states=2000, prune=prune)
        targets = [tuple(c.chain) for c in record.chains]
        assert fits == [{t for target in targets for t in (target, target[::-1])}]
        params = dataclasses.replace(TestSearch.BENCH, max_blowups=4)
        search_constructions(params, a0, prune=prune)
        assert len(fits) > 1 and all(stated is None for stated in fits[1:])
        assert len({id(base) for base, _ in seen}) > 1
        assert all(deep == (_deep_curves(base) if prune else frozenset())
                   for base, deep in seen)


class TestAbstractLeaves:
    """`_leaves` on integer states against the replay of every state."""

    @pytest.mark.parametrize("rid", ["2.1", "2.2", "3.2", "4.1", "5.1", "7.1"])
    @pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
    @pytest.mark.parametrize("hinted", [True, False], ids=["hinted", "free"])
    def test_matches_replay_on_inference(self, a0, records, monkeypatch,
                                         rid, prune, hinted):
        record = records[rid] if hinted else dataclasses.replace(records[rid], steps=())
        monkeypatch.setattr(plans, "_leaves", _lockstep(plans._leaves))
        # the pruned runs finish; the budget cuts every free unpruned run short
        result = infer_plan(record, a0.restrict(record.curves),
                            max_states=200000 if prune else 2500, prune=prune)
        assert result.leaves > 0
        assert result.success != result.exhausted

    def test_taken_exceptional_name_raises_without_a_leaf(self):
        # blow_up names the first tower's curves E1 and E2, and E2 is a base
        # curve; the second tower finds no A-B node left, so no leaf is built.
        # Paths (A) and (B, E2) survive, and each lies in a [5, 2], so the
        # stated chains admit sizes (1, 2) and (2, 1), and a first tower of two
        # curves.  A at -3 lets both sums reach a Wahl chain's (`_sum_rule`)
        cfg = Configuration.build([("A", -3), ("B", -2), ("E2", -2)],
                                  [("A", "B"), ("B", "E2")])
        record = SurfaceRecord("0.9", 1, ("A", "B", "E2"), 0,
                               (BlowupSpec("A", "B", (2, 1)), BlowupSpec("A", "B", None)),
                               (ChainSpec(3, 1, (5, 2)), ChainSpec(3, 1, (5, 2))))
        for prune in (True, False):
            with pytest.raises(ConfigurationError, match="E2 already taken"):
                infer_plan(record, cfg, prune=prune)

    # a self-node, a pair meeting twice and one meeting three times
    TANGLE = Configuration.build(
        [(c, -2) for c in "WXYZ"],
        [("W", "X"), ("Y", "Y"), ("W", "X"), ("X", "Y"), ("Y", "Z"), ("W", "W"),
         ("Y", "Z"), ("Z", "X"), ("Y", "Z")])
    TARGETS = [(4, 5, 3, 2, 2), (3, 5, 3, 2), (6, 2, 2)]

    @pytest.mark.parametrize("bases, complete", [
        ([("Y", "Y", 0), ("W", "X", 0), ("W", "X", 0)], True),
        ([("W", "W", 0), ("Y", "Z", 0), ("Y", "Z", 1), ("Y", "Z", 0)], True),
        ([("W", "X", 1), ("W", "X", 1)], False),  # the second has no node left
        ([("W", "X", 0), ("W", "X", 0), ("W", "X", 0)], False),
        ([("X", "W", 0), ("Z", "Z", 0)], False),  # Z has no self-node
    ], ids=["self-node", "thrice", "occurrence", "used-up", "absent"])
    @pytest.mark.parametrize("limits", ["none", "bound", "targeted", "degree"])
    @pytest.mark.parametrize("budget", [400, sys.maxsize], ids=["400", "unlimited"])
    def test_matches_replay_on_tangle(self, bases, complete, limits, budget):
        pool = _substring_pool(self.TARGETS) if limits == "targeted" else None
        # search's depth cap: seven blow-ups take a tower of six curves, or
        # a base curve, deeper than 5
        cap = 5 if limits == "bound" else None
        # the degree rule on W, X and Y, as if Z were at -1: it drops some
        # but not all leaves of both complete cases
        deep = frozenset("WXY") if limits == "degree" else frozenset()
        steps = [PlanStep(*b) for b in bases]
        leaves = 0
        for total in range(len(steps), 8):
            got = _Counts()
            yielded = []
            try:
                for leaf in _lockstep(plans._leaves)(
                        self.TANGLE, steps, _allocations(total, [(None,) * (2 * len(steps))]),
                        pool, {}, got, budget, deep, cap):
                    yielded.append(leaf)
            except plans._Exhausted:
                assert got.states == budget + 1
            assert got.states > 0 and got.leaves == len(yielded)
            leaves += len(yielded)
        assert (leaves > 0) == complete


def _random_wahl_chain(rng):
    """A Wahl chain grown from [4] by the two extension moves."""
    chain = [4]
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.5:
            chain = [2] + chain[:-1] + [chain[-1] + 1]
        else:
            chain = [chain[0] + 1] + chain[1:] + [2]
    return tuple(chain)


def _chain_sets():
    """The chains of every catalog record and main, then seeded random ones."""
    sets = {r.rid: [tuple(c.chain) for c in r.chains] for r in load_records()}
    for k2, main in load_expected()["mains"].items():
        sets[f"main{k2}"] = [tuple(c["chain"]) for c in main["chains"]]
    rng = random.Random(9)
    for i in range(12):
        sets[f"random{i}"] = [_random_wahl_chain(rng) for _ in range(rng.randint(1, 3))]
    # runs (2,2,3,5) and (2,2,2,3,5) fit the pool apart, and a tower of
    # size 10 joins them around its 1, deeper than the one chain allows
    sets["bound"] = [(6, 5, 3, 2, 2, 2, 2)]
    return sets


class TestOneSurvivorTowers:
    """The forward walk of one-survivor towers against generate-and-test."""

    CHAIN_SETS = _chain_sets()

    @pytest.mark.parametrize("targets", CHAIN_SETS.values(), ids=list(CHAIN_SETS))
    def test_matches_generate_and_test(self, targets):
        assert all(wahl_singularity(t) is not None for t in targets)
        pool = _substring_pool(targets)
        found = 0
        for size in range(1, 15):
            got = plans._tower_outcomes(size, pool)
            assert got == _reference_one_survivor(size, pool), size
            found += len(got)
        assert found > 0

    @pytest.mark.parametrize("targets", CHAIN_SETS.values(), ids=list(CHAIN_SETS))
    @pytest.mark.parametrize("ones_cap", [2, 3])
    def test_capped_levels_match_unpruned(self, targets, ones_cap):
        # the level enumeration finds every tower: each of those with up to
        # ones_cap surviving (-1)s keeps at least one, and the walk returns
        # exactly the ones that keep one
        pool = _substring_pool(targets)
        found = 0
        for size in range(1, 9):
            got = plans._tower_outcomes(size, pool)
            towers = [xs for xs, _ in _reference_towers(size, pool)
                      if xs.count(1) <= ones_cap]
            assert all(xs.count(1) >= 1 for xs in towers)
            assert [xs for xs, _ in got] == [xs for xs in towers if xs.count(1) == 1], size
            assert all(_replay_script(script) == xs for xs, script in got)
            found += len(got)
        assert found > 0

    @pytest.mark.parametrize("hinted", [True, False], ids=["hinted", "free"])
    def test_catalog_allows_one_survivor_per_tower(self, a0, records, monkeypatch,
                                                   hinted):
        # for a record that fits the geography, at most r + B - sum(len) =
        # P + K^2 (-1)s survive, as many as there are towers, so walking
        # only the towers that keep one loses no plan
        calls = []
        leaves = plans._leaves

        def recording(base, bases, *rest):
            calls.append((len(bases), ones_total))
            return leaves(base, bases, *rest)

        monkeypatch.setattr(plans, "_leaves", recording)
        for record in records.values():
            if not hinted:
                record = dataclasses.replace(record, steps=())
            elif not record.steps:
                continue
            ones_total = (record.blowup_total + len(record.curves)
                          - sum(len(c.chain) for c in record.chains))
            infer_plan(record, a0.restrict(record.curves), max_states=3000)
        assert calls and all(towers == ones for towers, ones in calls)

    @pytest.mark.parametrize("case", ["fibre", "2.1-pool", "2.1", "2.2", "4.1",
                                      "main2-free"])
    def test_level_enumeration_gives_the_same_results(self, a0, records, monkeypatch,
                                                      case):
        # towers that keep two (-1)s add states but never a result
        def run():
            if case == "fibre":
                params = SearchParams(k2=1, max_chains=2, max_blowups=7,
                                      curve_pool=tuple("WXYZ"))
                return search_constructions(params, TestLeafGraph.FIBRE).records
            if case == "2.1-pool":
                return search_constructions(TestSearch.BENCH, a0).records
            record = records[case.split("-")[0]]
            if case.endswith("-free"):
                record = dataclasses.replace(record, steps=())
            result = infer_plan(record, a0.restrict(record.curves))
            assert result.success
            return str(result.plan), result.marked.wahl_chains

        walked = run()
        monkeypatch.setattr(plans, "_tower_outcomes", _reference_towers)
        assert run() == walked


def _read_graph(config):
    """Oracle: the self-intersections and node counts read off a configuration."""
    return ({c.name: c.self_int for c in config.curves},
            Counter(n.pair() for n in config.nodes))


def _leaf_graph(base, bases, state):
    """Oracle: the graph of a leaf's configuration, replayed from its steps."""
    return _read_graph(BlowupPlan(state.plan_steps(bases)).execute(base))


def _reference_mark_chains(config, targets):
    """Oracle: the target marking searched on the configuration's own queries.

    Backtracks over the simple paths in name order, longest target first;
    consecutive path curves share exactly one node and the others none.
    """
    curves = {c.name: c.self_int for c in config.curves}

    def paths(target, used):
        out = set()

        def extend(path, pos):
            if pos == len(target):
                out.add(min(tuple(path), tuple(reversed(path))))
                return
            last = path[-1]
            for nxt in sorted(config.neighbors(last)):
                if (nxt in used or nxt in path or curves[nxt] != -target[pos]
                        or config.pairing(last, nxt) != 1
                        or any(config.pairing(nxt, e) for e in path[:-1])):
                    continue
                extend(path + [nxt], pos + 1)

        for name, self_int in sorted(curves.items()):
            if name not in used and self_int == -target[0]:
                extend([name], 1)
        return sorted(out)

    order = sorted(range(len(targets)), key=lambda i: -len(targets[i]))
    chosen = {}

    def assign(k, used):
        if k == len(order):
            return all(s in (-1, -2) for name, s in curves.items() if name not in used)
        for path in paths(targets[order[k]], used):
            if any(config.pairing(a, b) for a in path for other in chosen.values()
                   for b in other):
                continue
            chosen[order[k]] = path
            if assign(k + 1, used | set(path)):
                return True
            del chosen[order[k]]
        return False

    if not assign(0, set()):
        return None
    return [chosen[i] if tuple(-curves[c] for c in chosen[i]) == tuple(t)
            else tuple(reversed(chosen[i])) for i, t in enumerate(targets)]


def _checked_marking(config, targets):
    """`mark_chains(config, targets)`, checked against the oracle.

    Where the oracle marks and leaves only (-1)-curves unmarked, the marker
    marks the same chains; where the marker marks, the oracle marks the
    same set of chains.
    """
    chains = _reference_mark_chains(config, targets)
    marked = mark_chains(config, targets)
    if chains is not None and all(config.self_int[c] == -1 for c in config.self_int
                                  if not any(c in chain for chain in chains)):
        try:
            want = MarkedSurface(config, tuple(chains))
        except AssemblyError:
            want = None
        assert marked == want
    if marked is not None:
        assert chains is not None and set(chains) == set(marked.wahl_chains)
    return marked


class TestLeafGraph:
    """Each leaf's replayed configuration against the leaf's integers."""

    # a doubly-meeting pair with a two-curve tail, as in the K^2=1 tests
    FIBRE = Configuration.build(
        [(c, -2) for c in "WXYZ"],
        [("W", "X"), ("W", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "X")])

    @staticmethod
    def _check(base, bases, state):
        # the steps replay, onto the depths the state holds: the base
        # curves' in base order, the exceptional curves' as a multiset
        config = BlowupPlan(state.plan_steps(bases)).execute(base)
        depths = {name: -s for name, s in _read_graph(config)[0].items()}
        assert state.depths == tuple(depths.pop(c.name) for c in base.curves)
        assert sorted(state.exceptional) == sorted(depths.values())
        return config

    @pytest.mark.parametrize("k2, pool, marked", [
        (2, ("A2", "A3", "B1", "C1", "C2", "D1"), 0),
        (1, ("W", "X", "Y", "Z"), 8),
    ], ids=["2.1", "fibre"])
    def test_matches_configuration_on_search(self, a0, monkeypatch, k2, pool, marked):
        # every leaf, whether or not it passes the arm test
        leaves = plans._leaves
        checked = []

        def checking(base, bases, *args):
            for alloc, state in leaves(base, bases, *args):
                self._check(base, bases, state)
                checked.append(state)
                yield alloc, state

        monkeypatch.setattr(plans, "_leaves", checking)
        base = a0 if k2 == 2 else self.FIBRE
        params = SearchParams(k2=k2, max_chains=2, max_blowups=5, curve_pool=pool)
        result = search_constructions(params, base)
        assert result.leaves == len(checked) > result.marked == marked

    # every catalog record hinted, (4.1) and (7.1) blowing up C1*C2 twice,
    # on a doubly-meeting pair; main K^2=2 free
    INFERENCES = [(r.rid, True) for r in load_records()] + [("main2", False)]

    @pytest.mark.parametrize("rid, hinted", INFERENCES,
                             ids=[f"{rid}-{'hinted' if hinted else 'free'}"
                                  for rid, hinted in INFERENCES])
    def test_matches_configuration_on_inference(self, a0, records, monkeypatch,
                                                rid, hinted):
        record = records[rid] if hinted else dataclasses.replace(records[rid], steps=())
        targets = [tuple(c.chain) for c in record.chains]
        leaves = plans._leaves
        marks = []

        def checking(base, bases, *args):
            for alloc, state in leaves(base, bases, *args):
                config = self._check(base, bases, state)
                marks.append(_checked_marking(config, targets) is not None)
                yield alloc, state

        monkeypatch.setattr(plans, "_leaves", checking)
        result = infer_plan(record, a0.restrict(record.curves))
        assert result.success and result.leaves == len(marks) and marks[-1]

    def test_matches_configuration_on_tangle(self):
        # two self-nodes and a pair meeting three times, each chosen or
        # surviving, under towers of one and two blow-ups
        tangle = TestAbstractLeaves.TANGLE
        leaves = 0
        for m in range(1, 7):
            got = _Counts()
            for _, pairs in _base_choices(tangle, m, got, sys.maxsize):
                bases = [PlanStep(a, b) for a, b in pairs]
                allocs = itertools.chain.from_iterable(
                    _allocations(total, [(None,) * (2 * m)]) for total in (m, m + 1))
                for _, state in plans._leaves(tangle, bases, allocs, None, {}, got,
                                              sys.maxsize):
                    self._check(tangle, bases, state)
                    leaves += 1
        assert leaves > 0


    # V at +2 ends as a (-1)-curve under three towers whose end curves meet
    # it, so it is exempt; X at -1 meets A twice and B once
    EXEMPT = Configuration.build(
        [("V", 2), ("X", -1)] + [(c, -2) for c in "ABC"],
        [("A", "V"), ("B", "V"), ("C", "V"), ("A", "X"), ("A", "X"), ("B", "X")])

    # free, main 2's pinned tower sizes leave the rule no leaf to drop
    @pytest.mark.parametrize("rid, hinted", [(None, None), ("4.1", True), ("7.1", True),
                                             ("2.1", False)],
                             ids=["search-exempt", "4.1-hinted", "7.1-hinted",
                                  "2.1-free"])
    def test_degree_rule_drops_only_rejected_leaves(self, a0, records, monkeypatch,
                                                    rid, hinted):
        # every leaf the rule drops is one the search's marker rejects:
        # _greedy_mark in search, mark_chains against the stated chains in
        # inference
        leaves = plans._leaves
        kept, dropped = [], []

        def compare(base, bases, allocs, pool, outcomes, result, max_states, deep,
                    cap=None):
            allocs, mine = itertools.tee(allocs)
            for alloc in mine:
                run = {d: [state.plan_steps(bases) for _, state in leaves(
                    base, bases, [alloc], pool, {}, _Counts(), sys.maxsize, d, cap)]
                    for d in (deep, frozenset())}
                ruled = set(run[deep])
                assert run[deep] == [steps for steps in run[frozenset()] if steps in ruled]
                kept.extend(BlowupPlan(steps).execute(base) for steps in run[deep])
                dropped.extend(BlowupPlan(steps).execute(base) for steps in run[frozenset()]
                               if steps not in ruled)
            return leaves(base, bases, allocs, pool, outcomes, result, max_states, deep,
                          cap)

        monkeypatch.setattr(plans, "_leaves", compare)
        if rid is None:
            marks = lambda config: plans._greedy_mark(*_read_graph(config))
            for m in range(1, len(self.EXEMPT.nodes) + 1):
                for _, pairs in _base_choices(self.EXEMPT, m, _Counts(), sys.maxsize):
                    allocs = itertools.chain.from_iterable(
                        _allocations(total, [(None,) * (2 * m)]) for total in range(m, 7))
                    list(plans._leaves(self.EXEMPT, [PlanStep(a, b) for a, b in pairs],
                                       allocs, None, {}, _Counts(), sys.maxsize,
                                       _deep_curves(self.EXEMPT)))
            assert len([c for c in kept if marks(c) is not None]) == 2
        else:
            record = records[rid] if hinted else dataclasses.replace(records[rid],
                                                                     steps=())
            targets = [tuple(c.chain) for c in record.chains]
            marks = lambda config: mark_chains(config, targets)
            assert infer_plan(record, a0.restrict(record.curves)).success
            assert any(marks(c) is not None for c in kept)
        assert dropped and all(marks(c) is None for c in dropped)


def _checked_arm_test(arm_test, seen):
    """`arm_test`, checked leaf by leaf against the greedy marking of the
    leaf's graph.

    The test never fails a leaf that search marks (Wahl chains and no ADE
    chain), and on a base whose curves are all deep it passes exactly those
    leaves.  `seen` counts the leaves by (verdict, marked, all deep).
    """
    def checked(base, bases, tested, accepts):
        passes = arm_test(base, bases, tested, accepts)
        every = _deep_curves(base) == {c.name for c in base.curves}

        def check(alloc, state):
            verdict = passes(alloc, state)
            marking = plans._greedy_mark(*_leaf_graph(base, bases, state))
            kept = marking is not None and bool(marking[0]) and not marking[1]
            assert verdict or not kept
            assert verdict == kept or not every
            seen[verdict, kept, every] += 1
            return verdict
        return check
    return checked


class TestArmTest:
    """The leaf verdict, on integers, against the marker of each search."""

    # by case: the leaves counted by (verdict, marked, all deep).  Off the
    # deep curves _greedy_mark decides, and it rejects some leaves the arm
    # test passes; on deep curves the test passes only marked leaves
    SEARCHES = {
        "bench": {(False, False, True): 1055, (True, True, True): 2},
        "exempt": {(True, True, True): 1, (False, False, True): 6,
                   (True, True, False): 3, (True, False, False): 805,
                   (False, False, False): 252},
        "fibre": {(False, False, True): 493, (True, True, True): 14},
    }

    @pytest.mark.parametrize("case", list(SEARCHES))
    def test_search(self, a0, monkeypatch, case):
        base, params = {
            "bench": (a0, TestSearch.BENCH),
            "exempt": (TestSearch.EXEMPT, SearchParams(k2=2, max_chains=1, max_blowups=6)),
            "fibre": (TestLeafGraph.FIBRE, SearchParams(k2=1, max_chains=2, max_blowups=7,
                                                        curve_pool=tuple("WXYZ"))),
        }[case]
        seen = Counter()
        monkeypatch.setattr(plans, "_arm_test", _checked_arm_test(plans._arm_test, seen))
        result = search_constructions(params, base)
        assert result.records and sum(seen.values()) == result.leaves
        assert seen == self.SEARCHES[case]

    # every catalog record hinted; free, the records that free inference
    # recovers at its default budget, and main K^2=2
    INFERENCES = ([(r.rid, True) for r in load_records()]
                  + [(rid, False) for rid in ("2.1", "2.2", "3.2", "4.1", "5.1", "6.1",
                                              "7.1", "main2")])

    @pytest.mark.parametrize("rid, hinted", INFERENCES,
                             ids=[f"{rid}-{'hinted' if hinted else 'free'}"
                                  for rid, hinted in INFERENCES])
    def test_inference(self, a0, records, monkeypatch, rid, hinted):
        # the test never fails a leaf that marks into the stated chains
        record = records[rid] if hinted else dataclasses.replace(records[rid], steps=())
        targets = [tuple(c.chain) for c in record.chains]
        arm_test = plans._arm_test
        seen = Counter()  # leaves by (verdict, marked)

        def checked(base, bases, tested, accepts):
            passes = arm_test(base, bases, tested, accepts)

            def check(alloc, state):
                verdict = passes(alloc, state)
                config = BlowupPlan(state.plan_steps(bases)).execute(base)
                marked = mark_chains(config, targets) is not None
                assert verdict or not marked
                seen[verdict, marked] += 1
                return verdict
            return check

        monkeypatch.setattr(plans, "_arm_test", checked)
        result = infer_plan(record, a0.restrict(record.curves))
        assert sum(seen.values()) == result.leaves > 0
        assert seen[True, True] or not result.success

    CHOICES = {
        "fibre": {(False, False, True): 1553, (True, True, True): 14},
        "exempt": {(True, False, False): 447, (False, False, False): 1200},
        "tangle": {(False, False, True): 821},
    }

    @pytest.mark.parametrize("case", list(CHOICES))
    def test_every_base_choice(self, case):
        # every choice of base nodes, with no path rule, so that the deep
        # curves may also meet in a cycle, twice or at a self-node
        base, extra = {"fibre": (TestLeafGraph.FIBRE, 3),
                       "exempt": (TestLeafGraph.EXEMPT, 2),
                       "tangle": (TestAbstractLeaves.TANGLE, 1)}[case]
        deep = _deep_curves(base)
        seen = Counter()
        test = _checked_arm_test(plans._arm_test, seen)
        for m in range(1, len(base.nodes) + 1):
            for _, pairs in _base_choices(base, m, _Counts(), sys.maxsize):
                bases = [PlanStep(a, b) for a, b in pairs]
                passes = test(base, bases, plans._tested_paths(base, bases, deep),
                              lambda string: wahl_singularity(string) is not None)
                allocs = itertools.chain.from_iterable(
                    _allocations(total, [(None,) * (2 * m)])
                    for total in range(m, m + extra + 1))
                for alloc, state in plans._leaves(base, bases, allocs, None, {},
                                                  _Counts(), sys.maxsize, deep):
                    passes(alloc, state)
        assert seen == self.CHOICES[case]


class TestBaseChoices:
    # records with at most 8 base nodes to blow up: the oracle enumerates
    # all combinations, 94,146 distinct choices for m = 8
    SMALL = [r.rid for r in load_records() if _nodes_to_blow_up(r) <= 8]
    _UNLIMITED: dict = {}  # rid -> its unlimited walks, without and with the path rule

    @pytest.mark.parametrize("rid", SMALL)
    @pytest.mark.parametrize("budget", [3000, sys.maxsize], ids=["3000", "unlimited"])
    def test_matches_reference(self, a0, records, rid, budget):
        record = records[rid]
        base = a0.restrict(record.curves)
        m = _nodes_to_blow_up(record)
        deep = _deep_curves(base)
        if rid not in self._UNLIMITED:
            # the oracle and the unlimited walks, shared by both budgets
            every = list(_reference_choices(base, m, _Counts(), sys.maxsize))
            feasible = [x for x in every if _combo_feasible(base, x[0])]
            self._UNLIMITED[rid] = [
                self._unlimited_walk(base, m, frozenset(), every, every),
                self._unlimited_walk(base, m, deep, every, feasible)]
        for rule, walk in zip((frozenset(), deep), self._UNLIMITED[rid]):
            self._check_budget(base, m, budget, rule, walk)

    @staticmethod
    def _unlimited_walk(cfg, m, deep, every, feasible):
        """`_base_choices` over the deep curves `deep`, unlimited, against the
        oracle.

        `every` is the oracle's list of choices and `feasible` the ones the
        path rule admits.  The walk yields exactly the feasible choices, in
        order, and counts one state per yielded choice and per rejected
        prefix.  Each rejected prefix stands for at least one rejected
        choice, and some prefix is rejected whenever a choice is.  Over no
        deep curves the walk is the oracle, state by state.  Returns the
        yielded choices, each with the states counted by then, and the
        final counts.
        """
        walk = _Counts()
        full = [(combo, pairs, walk.states)
                for combo, pairs in _base_choices(cfg, m, walk, sys.maxsize, deep)]
        assert [x[:2] for x in full] == feasible
        assert walk.states == len(full) + walk.pruned
        rejected = len(every) - len(feasible)
        assert walk.pruned <= rejected and (walk.pruned > 0) == (rejected > 0)
        if not deep:
            assert [x[2] for x in full] == list(range(1, len(every) + 1))
        return full, walk

    @staticmethod
    def _check_budget(cfg, m, budget, deep, unlimited):
        """Under a budget the walk stops after the first `budget` states of
        its unlimited walk, counting one more."""
        full, walk = unlimited
        got = _Counts()
        seq = []
        try:
            for combo, pairs in _base_choices(cfg, m, got, budget, deep):
                seq.append((combo, pairs, got.states))
        except plans._Exhausted:
            assert got.states == budget + 1
        assert seq == [x for x in full if x[2] <= budget]
        assert got.states == min(walk.states, budget + 1)
        assert got.states == len(seq) + got.pruned + (got.states > budget)

    # A0 has neither self-nodes nor a pair meeting three times
    TANGLE = [("W", "X"), ("Y", "Y"), ("W", "X"), ("X", "Y"), ("Y", "Z"),
              ("W", "W"), ("Y", "Z"), ("Z", "X"), ("Y", "Z")]

    @pytest.mark.parametrize("nodes, targets", [
        (TANGLE, [(4, 5, 3, 2, 2), (3, 5, 3, 2)]),
        (TANGLE, [(2, 5), (4,)]),
        (TANGLE, [(3, 3, 2, 6, 3, 2)]),
        # a chosen self-node sinks its curve two steps: too deep for [3, 2]
        ([("W", "W"), ("W", "X")], [(3, 2)]),
    ])
    def test_self_nodes_and_repeated_pairs(self, nodes, targets):
        self._check_prefixes(nodes, targets, {})

    @pytest.mark.parametrize("targets, self_ints", [
        ([(4, 5, 3, 2, 2), (3, 5, 3, 2)], {"X": -1, "Z": 0}),
        ([(2, 5), (4,)], {"Y": 1}),
    ], ids=["minus-one-and-zero", "plus-one"])
    def test_path_rule_exempts_curves_above_minus_two(self, targets, self_ints):
        # some leaves pass the arm test here, none on the all-(-2) tangle
        assert self._check_prefixes(self.TANGLE, targets, self_ints) > 0

    @staticmethod
    def _check_prefixes(nodes, targets, self_ints):
        """The path rule and no rule against the oracle, every m and two
        budgets; then the pins of each choice the path rule admits.

        Every leaf of up to two extra blow-ups that passes the arm test
        (into the targets) and the degree rule has an allocation that the
        choice's pins admit (`_pins`).  Returns the number of such leaves.
        """
        cfg = Configuration.build([(c, self_ints.get(c, -2))
                                   for c in sorted({c for n in nodes for c in n})], nodes)
        deep = _deep_curves(cfg)
        stated = {chain for t in targets for chain in (t, t[::-1])}
        passed = 0
        for m in range(len(cfg.nodes) + 1):
            every = list(_reference_choices(cfg, m, _Counts(), sys.maxsize))
            paths = [x for x in every if _combo_feasible(cfg, x[0])]
            for rule, want in ((frozenset(), every), (deep, paths)):
                walk = TestBaseChoices._unlimited_walk(cfg, m, rule, every, want)
                for budget in (5, sys.maxsize):
                    TestBaseChoices._check_budget(cfg, m, budget, rule, walk)
            for _, pairs in paths:
                bases = [PlanStep(a, b) for a, b in pairs]
                tested = plans._tested_paths(cfg, bases, deep)
                pins = plans._pins(cfg, bases, tested, targets) if tested is not None else ()
                passes = plans._arm_test(cfg, bases, tested, stated.__contains__)
                for total in range(m, m + 3):
                    admitted = set(_allocations(total, pins))
                    for alloc, state in plans._leaves(
                            cfg, bases, _allocations(total, [(None,) * (2 * m)]), None,
                            {}, _Counts(), sys.maxsize, deep):
                        if passes(alloc, state):
                            assert alloc in admitted, (pairs, alloc)
                            passed += 1
        return passed

    @staticmethod
    def _star_walk(nodes, m):
        """The walk over the all-(-2) configuration on `nodes`, checked
        against the oracle: its choices, states and pruned prefixes."""
        cfg = Configuration.build([(c, -2) for c in sorted({c for n in nodes for c in n})],
                                  nodes)
        every = list(_reference_choices(cfg, m, _Counts(), sys.maxsize))
        feasible = [x for x in every if _combo_feasible(cfg, x[0])]
        full, walk = TestBaseChoices._unlimited_walk(cfg, m, _deep_curves(cfg), every,
                                                     feasible)
        return [x[:2] for x in full], walk.states, walk.pruned

    @pytest.mark.parametrize("rid", SMALL)
    def test_fit_drops_only_choices_without_pins(self, a0, records, rid):
        # the record's own base nodes are among the choices with pins
        record = records[rid]
        base = a0.restrict(record.curves)
        own = tuple(sorted(_pair(s.a, s.b) for s in record.steps))
        targets = [tuple(c.chain) for c in record.chains]
        assert own in self._pinned(base, _nodes_to_blow_up(record), targets)

    def test_fit_exempts_paths_that_may_meet_a_shallow_curve(self):
        # the path A-B fits no [4], but C meets the (-1)-curve S, so A-B-C
        # may end untested: choosing D-E alone leaves a pin.  The path D-E
        # is cut wherever it forms.
        cfg = Configuration.build([(c, -2) for c in "ABCDE"] + [("S", -1)],
                                  [("A", "B"), ("B", "C"), ("C", "S"), ("D", "E")])
        assert (("D", "E"),) in self._pinned(cfg, 1, [(4,), (4,)])
        for m in range(len(cfg.nodes) + 1):
            self._pinned(cfg, m, [(4,), (4,)])
        cut = _Counts()
        assert not list(_base_choices(cfg, 0, cut, sys.maxsize, _deep_curves(cfg), {(4,)}))
        assert (cut.states, cut.pruned) == (1, 1)

    @staticmethod
    def _pinned(cfg, m, targets):
        """The free walk with the fit to `targets` against the walk without
        it: it yields the same choices that `_pins` leaves a pin, in the same
        order, and drops only choices that it leaves none.  Returns those
        with a pin."""
        deep = _deep_curves(cfg)

        def walk(stated):
            choices = []
            for _, pairs in _base_choices(cfg, m, _Counts(), sys.maxsize, deep, stated):
                bases = [PlanStep(a, b) for a, b in pairs]
                tested = plans._tested_paths(cfg, bases, deep)
                choices.append((pairs, tested is not None
                                and bool(plans._pins(cfg, bases, tested, targets))))
            return choices

        fitted = walk({t for target in targets for t in (target, target[::-1])})
        unfitted = walk(None)
        assert [x for x in fitted if x[1]] == [x for x in unfitted if x[1]]
        assert not any(pinned for x, pinned in unfitted if (x, pinned) not in fitted)
        rest = iter(unfitted)
        assert all(x in rest for x in fitted)  # a subsequence
        return [pairs for pairs, pinned in fitted if pinned]

    @pytest.mark.parametrize("m", [1, 2])
    def test_look_ahead_cuts_a_curve_with_too_many_neighbours(self, m):
        # H meets five curves: choosing m nodes leaves it degree 5 - m > 2,
        # so its excess, 3, exceeds m and the walk is cut at the root (one
        # state, one pruned); choosing 3 is not cut there
        star = [("H", c) for c in "ABCDE"]
        assert self._star_walk(star, m) == ([], 1, 1)
        choices, states, pruned = self._star_walk(star, 3)
        assert len(choices) == 10 and states == 10 and pruned == 0

    def test_look_ahead_cuts_by_the_sum_of_excesses(self):
        # three disjoint curves, each one node over: each excess fits the one
        # node still to choose, but that node relieves at most two of them,
        # so the walk is cut at the root.  Two nodes pass the root and fail
        # further down, since they cannot relieve all three.
        stars = [(x, f"{x}{k}") for x in "XYZ" for k in range(3)]
        assert self._star_walk(stars, 1) == ([], 1, 1)
        choices, states, pruned = self._star_walk(stars, 2)
        assert choices == [] and states == pruned > 1

    # the walk's exact counts on bases that A0 cannot give: self-nodes, a
    # pair meeting three times, a (-1)-curve and a (-3)-curve, with the fit
    # to the stated chains.  Per m: states, pruned and the choices, each as
    # its node ids.
    WALKS = {
        "tangle": (TANGLE, {}, [(4, 5, 3, 2, 2), (3, 5, 3, 2)], [
            (1, 1, []), (1, 1, []), (1, 1, []), (3, 3, []), (15, 15, []),
            (29, 27, ["03468", "04678"]),
            (28, 22, ["013468", "014678", "023468", "024678", "034678", "045678"]),
            (17, 9, ["0123468", "0124678", "0134678", "0145678", "0234568",
                     "0234678", "0245678", "0345678"]),
            (6, 1, ["01234568", "01234678", "01245678", "01345678", "02345678"]),
            (1, 0, ["012345678"])]),
        "tangle-short": (TANGLE, {}, [(2, 5), (4,)], [
            (1, 1, []), (1, 1, []), (1, 1, []), (3, 3, []), (9, 9, []), (14, 14, []),
            (16, 15, ["024678"]), (12, 10, ["0234678", "0245678"]),
            (6, 4, ["01234678", "02345678"]), (1, 0, ["012345678"])]),
        "self-node": ([("W", "W"), ("W", "X")], {}, [(3, 2)], [
            (1, 0, [""]), (2, 1, ["1"]), (1, 0, ["01"])]),
        # A-B meets the (-1)-curve S, so A and B are exempt from the fit
        "minus-one": (
            [("A", "B"), ("B", "S"), ("C", "D"), ("D", "D"), ("D", "E"), ("E", "F"),
             ("E", "F"), ("F", "C"), ("C", "E")], {"S": -1, "F": -3},
            [(3, 5, 3, 2), (4,), (2, 5)], [
                (1, 1, []), (1, 1, []), (8, 8, []), (29, 29, []),
                (59, 57, ["2568", "5678"]),
                (73, 64, ["02568", "05678", "12568", "15678", "23568", "24568",
                          "25678", "35678", "45678"]),
                (57, 41, ["012568", "015678", "023568", "024568", "025678", "035678",
                          "045678", "123568", "124568", "125678", "135678", "145678",
                          "234568", "235678", "245678", "345678"]),
                (28, 14, ["0123568", "0124568", "0125678", "0135678", "0145678",
                          "0234568", "0235678", "0245678", "0345678", "1234568",
                          "1235678", "1245678", "1345678", "2345678"]),
                (8, 2, ["01234568", "01235678", "01245678", "01345678", "02345678",
                        "12345678"]),
                (1, 0, ["012345678"])]),
    }

    @pytest.mark.parametrize("case", list(WALKS))
    def test_walk_counts_off_a0(self, case):
        nodes, self_ints, targets, want = self.WALKS[case]
        cfg = Configuration.build([(c, self_ints.get(c, -2))
                                   for c in sorted({c for n in nodes for c in n})], nodes)
        stated = {chain for t in targets for chain in (t, t[::-1])}
        got = []
        for m in range(len(cfg.nodes) + 1):
            walk = _Counts()
            choices = ["".join(map(str, combo)) for combo, _ in
                       _base_choices(cfg, m, walk, sys.maxsize, _deep_curves(cfg), stated)]
            got.append((walk.states, walk.pruned, choices))
        assert got == want

    def test_too_few_nodes(self):
        cfg = Configuration.build([("A", -2), ("B", -2)], [("A", "B")])
        got = _Counts()
        assert list(_base_choices(cfg, 2, got, 100)) == []
        assert got.states == 0
        assert list(_base_choices(cfg, 0, got, 100)) == [((), ())]
        assert got.states == 1


class TestSearch:
    def test_rediscovers_2_1(self, a0, records):
        record = records["2.1"]
        params = SearchParams(k2=2, max_chains=2, max_blowups=8,
                              curve_pool=tuple(sorted(record.curves)),
                              max_states=600000)
        result = search_constructions(params, a0)
        wanted = sorted((c.n, min(c.a, c.n - c.a)) for c in record.chains)
        hits = [r for r in result.records
                if set(r.curves) == set(record.curves)
                and sorted((c.n, min(c.a, c.n - c.a)) for c in r.chains) == wanted]
        assert hits, [format_record(r) for r in result.records]

    def test_emitted_records_round_trip(self, a0, records):
        record = records["2.1"]
        params = SearchParams(k2=2, max_chains=2, max_blowups=7,
                              curve_pool=tuple(sorted(record.curves)),
                              max_states=400000, max_results=5)
        result = search_constructions(params, a0)
        assert result.records
        for rec in result.records:
            assert parse_record(format_record(rec)) == rec
        assert format_record(result.records[0]) == (
            "(2.1) K^2=2 - {A2, A3, B1, C1, C2, D1} - det=-40 - "
            "[2,2,1] × A2∩B1, [2,1] × A3∩C1, C1∩C2, C2∩D1 - "
            "(11,3):[4,5,3,2,2] - (8,3):[3,5,3,2]")

    def test_depth_cap_binds_at_k2_1(self, a0):
        # eight blow-ups take a base curve from -2 past -(4K^2+4) = -8, and
        # the cap drops such states; without it the same budget reaches
        # 17,691 leaves
        params = SearchParams(k2=1, max_chains=3, max_blowups=8, max_states=50000)
        result = search_constructions(params, a0)
        assert (result.states, result.leaves, result.marked, len(result.records)) == \
            (50001, 17557, 82, 17)

    def test_geography_violating_params_empty(self, a0):
        params = SearchParams(k2=14, max_chains=2, max_blowups=4)
        result = search_constructions(params, a0)
        assert not result.records
        assert any("inadmissible" in note for note in result.notes)

    def test_k2_1_fiber_analog(self):
        # a doubly-meeting pair with a two-curve tail: four (-2)-curves,
        # five nodes, the smallest two-chain K^2=1 testbed
        cfg = Configuration.build(
            [(c, -2) for c in "WXYZ"],
            [("W", "X"), ("W", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "X")])
        params = SearchParams(k2=1, max_chains=2, max_blowups=7,
                              curve_pool=("W", "X", "Y", "Z"),
                              max_states=300000)
        result = search_constructions(params, cfg)
        assert result.records
        fours = [r for r in result.records
                 if any(c.chain == (4,) for c in r.chains)]
        assert fours, "expected a construction containing a [4] chain"
        for record in result.records:
            assert record.k2 == 1
            assert len(record.chains) == 2

    def test_greedy_marking_independent_of_hash_seed(self):
        # the two ends of a chain come out of a set: under these two seeds
        # they come out in different orders
        script = ("from collections import Counter\n"
                  "from wahlkit.plans import _greedy_mark\n"
                  "wahl, ade = _greedy_mark({'P': -2, 'Q': -5}, Counter([('P', 'Q')]))\n"
                  "print(wahl)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("0", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.append(run.stdout.strip())
        assert outputs == ["(('P', 'Q'),)"] * 2

    @pytest.mark.parametrize("curves, nodes, want", [
        ([("P", -2), ("Q", -5)], [("P", "Q")], ((("P", "Q"),), ())),
        ([("W", -4)], [], ((("W",),), ())),
        ([("P", -2), ("Q", -2)], [("P", "Q")], ((), (("P", "Q"),))),
        # (-1)-curves are left out, with their self-nodes and double nodes
        ([("P", -2), ("Q", -5), ("E", -1)], [("P", "Q"), ("E", "E"), ("E", "P"), ("E", "P")],
         ((("P", "Q"),), ())),
        ([("P", -2), ("Q", -5)], [("P", "Q"), ("P", "Q")], None),
        ([("P", -2), ("Q", -5)], [("P", "Q"), ("P", "P")], None),
        ([("W", -4)], [("W", "W")], None),
        ([("P", -2), ("Q", -5), ("R", -2)], [("P", "Q"), ("Q", "R"), ("R", "P")], None),
        ([("P", -5), ("Q", -2), ("R", -2), ("S", -2)], [("P", "Q"), ("P", "R"), ("P", "S")],
         None),
        ([("W", -3)], [], None),
        # a curve at 0 or above is in no chain (no Wahl string has such an entry)
        ([("P", -2), ("Q", -5), ("W", 0)], [("P", "Q"), ("Q", "W")], None),
        ([("W", 1)], [], None),
        # a chain cut out of a larger component is no chain
        ([("P", -5), ("Q", -2), ("R", -2)], [("P", "Q"), ("P", "Q"), ("P", "R")], None),
        ([("P", -2), ("Q", -5), ("R", -3), ("S", -2)],
         [("P", "Q"), ("Q", "R"), ("R", "P"), ("S", "Q")], None),
        # a stray (-2)-curve is an ADE chain
        ([("P", -2), ("Q", -5), ("S", -2)], [("P", "Q")], ((("P", "Q"),), (("S",),))),
    ], ids=["wahl", "single", "ade", "minus-one", "twice", "self-node", "lone-self-node",
            "cycle", "branch", "not-wahl", "zero-curve", "positive-curve", "meets-twice",
            "closes-up", "stray-minus-two"])
    def test_greedy_mark(self, curves, nodes, want):
        cfg = Configuration.build(curves, nodes)
        assert plans._greedy_mark(*_read_graph(cfg)) == want
        # mark_chains takes this marking if it has Wahl chains and no ADE chain
        if want and want[0] and not want[1]:
            strings = [tuple(-cfg.self_int[c] for c in path) for path in want[0]]
            assert mark_chains(cfg, strings).wahl_chains == want[0]
        else:
            for target in [(4,), (5, 2), (2, 5, 3)]:
                assert mark_chains(cfg, [target]) is None

    def test_repeated_pool_names_searched_once(self, a0):
        params = SearchParams(k2=2, max_chains=2, max_blowups=6,
                              curve_pool=("A2", "A3", "B1", "C1", "C2", "D1"))
        once = search_constructions(params, a0)
        assert once.states == 1606 and once.leaves > 0
        for pool in (("A2", "A2", "A3", "B1", "C1", "C2", "D1"),
                     ("D1", "A2", "A3", "D1", "B1", "C1", "C2", "D1")):
            repeated = dataclasses.replace(params, curve_pool=pool)
            assert search_constructions(repeated, a0) == once

    @pytest.mark.parametrize("field", ["max_chains", "max_blowups", "max_states",
                                       "max_results"])
    def test_negative_limits_rejected(self, a0, field):
        params = dataclasses.replace(SearchParams(k2=2, max_chains=2, max_blowups=6),
                                     **{field: -1})
        with pytest.raises(PlanError, match=field):
            search_constructions(params, a0)

    def test_empty_pool_rejected(self, a0):
        # an empty pool is not the whole configuration
        params = SearchParams(k2=2, max_chains=2, max_blowups=6, curve_pool=())
        with pytest.raises(PlanError, match="curve_pool must name at least one curve"):
            search_constructions(params, a0)

    def test_restricts_only_subsets_with_the_node_count(self, monkeypatch):
        # a subset's nodes are counted, self-nodes included, before it is
        # built: for K^2=1 and one chain only {W, X, Z} of the tangle has the
        # 4 nodes needed, W's self-node among them
        restricted = []
        restrict = Configuration.restrict

        def recording(config, names):
            restricted.append(tuple(names))
            return restrict(config, names)

        monkeypatch.setattr(Configuration, "restrict", recording)
        params = SearchParams(k2=1, max_chains=1, max_blowups=4)
        search_constructions(params, TestAbstractLeaves.TANGLE)
        assert restricted == [("W", "X", "Z")]

    @pytest.mark.parametrize("case", ["a0-12", "tangle"])
    def test_subsets_match_the_node_count_filter(self, a0, case):
        # every r and every node count, against the filter over all
        # combinations that the depth-first walk replaced
        base = a0 if case == "a0-12" else TestAbstractLeaves.TANGLE
        pool = sorted(c.name for c in base.curves)[:12]
        meets = Counter(n.pair() for n in base.nodes)
        total = sum(meets.values())
        for r in range(len(pool) + 1):
            counted = [(subset, sum(meets[pair] for pair in
                                    itertools.combinations_with_replacement(subset, 2)))
                       for subset in itertools.combinations(pool, r)]
            for t2 in range(total + 2):
                want = [subset for subset, nodes in counted if nodes == t2]
                assert list(plans._subsets(pool, r, meets, t2)) == want, (r, t2)

    @staticmethod
    def _subsets_without_look_ahead(pool, r, meets, t2):
        """Oracle: the subset walk that stops a branch only once its node
        count exceeds t2."""
        table = [[meets.get((a, b), 0) for a in pool[:j + 1]] for j, b in enumerate(pool)]

        def extend(chosen, start, nodes):
            if len(chosen) == r:
                if nodes == t2:
                    yield tuple(pool[i] for i in chosen)
                return
            for j in range(start, len(pool) - r + len(chosen) + 1):
                more = nodes + table[j][j] + sum(table[j][i] for i in chosen)
                if more <= t2:
                    yield from extend(chosen + [j], j + 1, more)
        return list(extend([], 0, 0))

    @pytest.mark.parametrize("k2, chains", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)])
    def test_subsets_look_ahead_on_a0(self, a0, k2, chains):
        # the full pool of A0, at the curve and node counts of the geography
        geo = geography_check(chains, k2)
        pool = sorted(c.name for c in a0.curves)
        want = self._subsets_without_look_ahead(pool, geo.r, a0.meets, geo.t2)
        assert list(plans._subsets(pool, geo.r, a0.meets, geo.t2)) == want
        assert len(want) == {(1, 3): 256, (2, 2): 384, (3, 1): 728}.get((k2, chains), 0)

    # the benchmark's search: 4,918 states, 1,057 leaves, 2 of them marked
    BENCH = SearchParams(k2=2, max_chains=2, max_blowups=7,
                         curve_pool=("A2", "A3", "B1", "C1", "C2", "D1"))

    def test_search_blows_up_only_marked_leaves(self, a0, monkeypatch):
        # a leaf is marked on its integer graph; only a marked leaf and the
        # states on its path are built (60,250 blow-ups when every leaf was)
        calls = _count_blow_ups(monkeypatch)
        result = search_constructions(self.BENCH, a0)
        assert (result.states, result.leaves, result.marked) == (4918, 1057, 2)
        assert not result.exhausted
        assert len(result.records) == 1
        assert 0 < len(calls) <= result.marked * self.BENCH.max_blowups

    def test_result_cap_stops_the_search(self, a0):
        # uncapped, this search finds 2 records in 14,220 states
        params = dataclasses.replace(self.BENCH, max_blowups=8)
        capped = search_constructions(dataclasses.replace(params, max_results=1), a0)
        assert len(capped.records) == 1 and capped.states < 14220
        assert capped.notes == ["result budget reached"]
        empty = search_constructions(dataclasses.replace(params, max_results=0), a0)
        assert (empty.records, empty.states) == ([], 0)
        assert empty.notes == ["result budget reached"]

    # a (-1)-curve X on three nodes, two of them to A, and a 0-curve W, next
    # to a block that has a record: a leaf that leaves X unblown marks
    # greedily, so neither rule may count X's nodes
    EXEMPT = Configuration.build(
        [(c, -2) for c in "ABCDE"] + [("X", -1), ("W", 0)],
        [("A", "B"), ("A", "C"), ("A", "C"), ("B", "D"), ("C", "E"), ("C", "E"),
         ("C", "E"), ("X", "A"), ("X", "A"), ("X", "B"), ("W", "B")])

    @pytest.mark.parametrize("case", ["bench", "a0-k2-1", "exempt"])
    def test_pruning_keeps_records_byte_identical(self, a0, case):
        # prune=False runs neither the path rule nor the degree rule, which
        # drop only leaves that _greedy_mark rejects, so the marked leaves
        # agree too
        base, params = {
            "bench": (a0, self.BENCH),
            "a0-k2-1": (a0, SearchParams(k2=1, max_chains=3, max_blowups=6)),
            "exempt": (self.EXEMPT, SearchParams(k2=2, max_chains=1, max_blowups=6)),
        }[case]
        pruned = search_constructions(params, base)
        unpruned = search_constructions(params, base, prune=False)
        assert pruned.records
        assert [format_record(r) for r in pruned.records] == \
            [format_record(r) for r in unpruned.records]
        assert pruned.marked == unpruned.marked
        assert pruned.states < unpruned.states

    def test_pruning_soundness_on_search(self):
        cfg = Configuration.build(
            [(c, -2) for c in "WXYZ"],
            [("W", "X"), ("W", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "X")])
        params = SearchParams(k2=1, max_chains=2, max_blowups=5,
                              curve_pool=("W", "X", "Y", "Z"),
                              max_states=400000)
        with_prune = search_constructions(params, cfg, prune=True)
        without = search_constructions(params, cfg, prune=False)
        key = lambda r: (r.curves, tuple(sorted(
            (c.n, min(c.a, c.n - c.a)) for c in r.chains)))
        assert {key(r) for r in with_prune.records} == \
            {key(r) for r in without.records}


def _passing_leaves(monkeypatch, run):
    """The leaves that pass `_arm_test` in `run()`, in order, and its result."""
    passing = []
    arm_test = plans._arm_test

    def recording(base, bases, tested, accepts):
        passes = arm_test(base, bases, tested, accepts)
        curves = tuple(c.name for c in base.curves)

        def check(alloc, state):
            verdict = passes(alloc, state)
            if verdict:
                passing.append((curves, alloc, state.plan_steps(bases)))
            return verdict
        return check

    monkeypatch.setattr(plans, "_arm_test", recording)
    result = run()
    monkeypatch.setattr(plans, "_arm_test", arm_test)
    return passing, result


class TestSumRule:
    """The allocations dropped by the Wahl sum rule (`_sum_rule`)."""

    @pytest.mark.parametrize("size", range(1, 12))
    def test_tower_sides_add_two(self, size):
        # each tower replayed on its local chain [a, E1, b], from depths 1:
        # its side toward a adds c_a = 1 + left - right to the sum less 3 per
        # entry, its side toward b 2 - c_a
        towers = plans._tower_outcomes(size, None)
        assert len(towers) == 2 ** (size - 1)
        for xs, script in towers:
            local, k, left = [1, 1, 1], 0, 0
            for gap in script:
                assert gap in (k, k + 1)
                left += gap == k
                local[gap] += 1
                local[gap + 1] += 1
                local.insert(gap + 1, 1)
                k = gap
            deepen_a, deepen_b = local[0], local[-1]
            assert tuple(local[1:-1]) == xs and xs.index(1) == k
            c_a = deepen_a + sum(xs[:k]) - 3 * k
            c_b = deepen_b + sum(xs[k + 1:]) - 3 * (size - 1 - k)
            assert c_a + c_b == 2
            assert c_a == 1 + left - (size - 1 - left)
            assert 2 - size <= c_a <= size and (c_a - size) % 2 == 0

    @pytest.mark.parametrize("depth", range(2, 8))
    def test_exact_for_one_tower_at_one_curve(self, depth):
        # a tower on P*X, X a (-1)-curve: P's string sums as a Wahl chain's
        # for some outcome of the tower exactly when the rule admits its size
        base = Configuration.build([("P", -depth), ("X", -1)], [("P", "X")])
        bases = [PlanStep("P", "X")]
        tested = plans._tested_paths(base, bases, _deep_curves(base))
        assert tested == [("P",)]
        admits = plans._sum_rule(base, bases, tested)
        passes = plans._arm_test(base, bases, tested,
                                 lambda string: sum(string) == 3 * len(string) + 1)
        for size in range(1, 9):
            leaves = plans._leaves(base, bases, [(size,)], None, {}, _Counts(),
                                   sys.maxsize, _deep_curves(base))
            assert admits((size,)) == any(passes(*leaf) for leaf in leaves), size

    CASES = ([(f"{r.rid}-hinted", r.rid, True) for r in load_records()]
             + [(f"{r.rid}-free", r.rid, False) for r in load_records()]
             + [(f"main{k2}-free", f"main{k2}", False) for k2 in range(2, 10)])

    @pytest.mark.parametrize("rid, hinted", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_inference_drops_no_passing_leaf(self, a0, records, monkeypatch, rid, hinted):
        record = records[rid] if hinted else dataclasses.replace(records[rid], steps=())
        base = a0.restrict(record.curves)
        ruled, result = _passing_leaves(monkeypatch, lambda: infer_plan(record, base))
        monkeypatch.setattr(plans, "_sum_rule", lambda *args: lambda alloc: True)
        every, unruled = _passing_leaves(monkeypatch, lambda: infer_plan(record, base))
        assert ruled == every and result.plan == unruled.plan
        assert result.success and result.states <= unruled.states

    SEARCHES = {
        "bench": (None, TestSearch.BENCH),
        "bench-8": (None, dataclasses.replace(TestSearch.BENCH, max_blowups=8)),
        "bench-6": (None, dataclasses.replace(TestSearch.BENCH, max_blowups=6)),
        "a0-k2-1": (None, SearchParams(k2=1, max_chains=3, max_blowups=6)),
        "depth-cap": (None, SearchParams(k2=1, max_chains=3, max_blowups=8,
                                         max_states=50000)),
        "exempt": (TestSearch.EXEMPT, SearchParams(k2=2, max_chains=1, max_blowups=6)),
        "fibre": (TestLeafGraph.FIBRE, SearchParams(k2=1, max_chains=2, max_blowups=7,
                                                    curve_pool=tuple("WXYZ"))),
    }

    @pytest.mark.parametrize("case", list(SEARCHES))
    def test_search_drops_no_passing_leaf(self, a0, monkeypatch, case):
        # a search that stops at its budget gets further with the rule
        base, params = self.SEARCHES[case]
        base = base or a0
        ruled, result = _passing_leaves(monkeypatch,
                                        lambda: search_constructions(params, base))
        monkeypatch.setattr(plans, "_sum_rule", lambda *args: lambda alloc: True)
        every, unruled = _passing_leaves(monkeypatch,
                                         lambda: search_constructions(params, base))
        assert ruled[:len(every)] == every and result.states <= unruled.states
        assert result.records[:len(unruled.records)] == unruled.records
        if not unruled.exhausted:
            assert ruled == every and result == dataclasses.replace(
                unruled, states=result.states, leaves=result.leaves)
        assert result.leaves < unruled.leaves

    @settings(max_examples=150, deadline=None)
    @given(_small_stated())
    def test_dropped_allocations_have_no_wahl_leaf(self, case):
        # on every base choice of up to three nodes and up to three extra
        # blow-ups, no leaf of a dropped allocation passes the arm test
        curves, nodes, _ = case
        base = Configuration.build(curves, nodes)
        deep = _deep_curves(base)
        for m in range(1, min(len(base.nodes), 3) + 1):
            for _, pairs in _base_choices(base, m, _Counts(), sys.maxsize, deep):
                bases = [PlanStep(a, b) for a, b in pairs]
                tested = plans._tested_paths(base, bases, deep)
                admits = plans._sum_rule(base, bases, tested)
                passes = plans._arm_test(base, bases, tested, plans.recognize_wahl)
                for total in range(m, m + 4):
                    for alloc in _allocations(total, [(None,) * (2 * m)]):
                        if not admits(alloc):
                            assert not any(passes(*leaf) for leaf in plans._leaves(
                                base, bases, [alloc], None, {}, _Counts(), sys.maxsize,
                                deep))


def _wahl_data(chain):
    sing = wahl_singularity(chain)
    return sing.n, sing.a


def _marked_records(config, most, extra):
    """Hinted records on the curve subsets of `config`, with their own
    search's verdicts still unknown.

    For each subset, each choice of up to `most` base nodes and each total
    of up to `extra` blow-ups more than nodes, the leaves of the unpruned
    walk that `_greedy_mark` marks into Wahl chains alone give chain sets.
    A choice gets a record with each chain set that one of its own leaves
    marks, and with each chain set of another choice of the same total that
    fits the geography: r - K^2 towers, each keeping the one (-1)-curve a
    marking leaves.
    """
    names = [c.name for c in config.curves]
    for r in range(1, len(names) + 1):
        for subset in itertools.combinations(names, r):
            sub = config.restrict(subset)
            own = {}  # choice -> the (total, chains) its leaves mark
            for m in range(1, min(len(sub.nodes), most) + 1):
                for _, pairs in _base_choices(sub, m, _Counts(), sys.maxsize):
                    bases = [PlanStep(a, b) for a, b in pairs]
                    allocs = itertools.chain.from_iterable(
                        _allocations(total, [(None,) * (2 * m)])
                        for total in range(m, m + extra + 1))
                    own[pairs] = set()
                    for alloc, state in plans._leaves(sub, bases, allocs, None, {},
                                                      _Counts(), sys.maxsize):
                        self_int, meets = _leaf_graph(sub, bases, state)
                        marking = plans._greedy_mark(self_int, meets)
                        if marking is not None and marking[0] and not marking[1]:
                            own[pairs].add((sum(alloc), tuple(sorted(
                                tuple(-self_int[c] for c in chain) for chain in marking[0]))))
            every = set().union(*own.values())
            for pairs, marked in own.items():
                for total, chains in sorted(every):
                    k2 = sum(map(len, chains)) - total
                    if (total, chains) in marked or (
                            total - len(pairs) <= extra and r - k2 == len(pairs)):
                        yield sub, SurfaceRecord(
                            "0.0", k2, subset, 0, tuple(BlowupSpec(a, b) for a, b in pairs),
                            tuple(ChainSpec(*_wahl_data(chain), chain) for chain in chains))


class TestPins:
    """The tower sizes the stated chains pin (`_pins`), off A0."""

    # a curve at -1 or above is exempt from the pins, as from the path and
    # degree rules; the tangle has self-nodes and a pair meeting thrice.
    # By case: the configuration, the most base nodes and extra blow-ups
    # of `_marked_records`, and the records, those found, and those found
    # in fewer states
    CASES = {"tangle": (TestAbstractLeaves.TANGLE, 3, 3, (28, 28, 22)),
             "leaf-exempt": (TestLeafGraph.EXEMPT, 6, 3, (3, 3, 3)),
             "search-exempt": (TestSearch.EXEMPT, 3, 2, (56, 25, 41))}

    @pytest.mark.parametrize("case", list(CASES))
    def test_finds_a_plan_exactly_when_unpruned_does(self, case):
        config, most, extra, want = self.CASES[case]
        found = faster = 0
        records = list(_marked_records(config, most, extra))
        for sub, record in records:
            pinned = infer_plan(record, sub)
            unpruned = infer_plan(record, sub, prune=False)
            assert not (pinned.exhausted or unpruned.exhausted)
            assert pinned.success == unpruned.success, format_record(record)
            found += pinned.success
            faster += pinned.states < unpruned.states
        assert (len(records), found, faster) == want

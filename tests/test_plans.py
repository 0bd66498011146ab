import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wahlkit.catalog.a0 import frozen_a0
from wahlkit.catalog.records import (ChainSpec, SurfaceRecord, format_record,
                                     parse_record)
from wahlkit.catalog.verify import load_records
from wahlkit.configuration import Configuration, geography_check
from wahlkit import plans
from wahlkit.plans import (BlowupPlan, PlanError, PlanStep, SearchParams,
                           _base_choices, _ChoicePrefix, _DepthBound,
                           infer_plan, mark_chains, search_constructions)


@pytest.fixture(scope="module")
def a0():
    return frozen_a0()


@pytest.fixture(scope="module")
def records():
    return {r.rid: r for r in load_records()}


def _nodes_to_blow_up(record):
    return geography_check(len(record.chains), record.k2).nodes_to_blow_up


def _combo_feasible(base, combo, targets, bound):
    """Oracle: the rules of `_ChoicePrefix`, on a whole choice of base nodes.

    Every incident chosen node sinks its curve at least one step, so the
    forced depths must embed into the stated chain entries; and unblown
    nodes survive as chain adjacencies, so they must form simple disjoint
    paths.
    """
    chosen = set(combo)
    inc = {}
    degree = {}
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    surviving = []
    for node in base.nodes:
        if node.id in chosen:
            inc[node.a] = inc.get(node.a, 0) + 1
            inc[node.b] = inc.get(node.b, 0) + 1
        else:
            if node.is_self_node:
                continue
            degree[node.a] = degree.get(node.a, 0) + 1
            degree[node.b] = degree.get(node.b, 0) + 1
            if degree[node.a] > 2 or degree[node.b] > 2:
                return False
            ra, rb = find(node.a), find(node.b)
            if ra == rb:
                return False
            parent[ra] = rb
            surviving.append((node.a, node.b))
    if not bound.admits([2 + k for k in inc.values()]):
        return False
    adjacent = {(t[i], t[i + 1]) for t in targets for i in range(len(t) - 1)}
    adjacent |= {(y, x) for x, y in adjacent}
    for u, v in surviving:
        du, dv = 2 + inc.get(u, 0), 2 + inc.get(v, 0)
        if not any(x >= du and y >= dv for x, y in adjacent):
            return False
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


@dataclasses.dataclass
class _Counts:
    states: int = 0
    pruned: int = 0


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
        assert result.near_misses

    def test_state_budget_bounds_base_node_choices(self, a0, records):
        # free inference of (8.1) tries millions of base-node choices; each
        # distinct choice counts as a state, so a small budget stops it
        record = dataclasses.replace(records["8.1"], steps=())
        result = infer_plan(record, a0.restrict(record.curves), max_states=2000)
        assert not result.success
        assert "state budget exhausted" in result.near_misses
        assert result.states <= 2001

    @pytest.mark.parametrize("rid, states, plan", [
        ("6.1", 83734, "A1*F15, A2*B1, A2*C1, A2*C3, A2*F1, A3*C1, A3*C3, "
                       "A3*E7, C1*C2"),
        ("7.1", 163513, "A2*B1, A3*B1, A3*C1, A4*C1, B4*D3, C1*C2, C1*C2, "
                        "D3*F1, D3*E8, F1*F2"),
    ])
    def test_free_inference_golden(self, a0, records, rid, states, plan):
        record = dataclasses.replace(records[rid], steps=())
        result = infer_plan(record, a0.restrict(record.curves))
        assert result.success
        assert result.states == states
        assert str(result.plan) == plan
        assert 0 < result.pruned < result.states

    def test_free_inference_budget_counts(self, a0, records):
        # the base-node choices rejected in bulk exhaust the budget
        record = dataclasses.replace(records["7.1"], steps=())
        result = infer_plan(record, a0.restrict(record.curves), max_states=20000)
        assert not result.success
        assert result.states == 20001
        assert "state budget exhausted" in result.near_misses
        assert f"after 20001 states ({result.pruned} pruned)" in result.summary()
        # towers exhaust the budget, then one more base-node choice counts
        record = dataclasses.replace(records["2.1"], steps=())
        result = infer_plan(record, a0.restrict(record.curves), max_states=3000)
        assert not result.success
        assert result.states == 3002

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


class TestBaseChoices:
    # records with at most 8 base nodes to blow up: the oracle enumerates
    # all combinations, 94,146 distinct choices for m = 8
    SMALL = [r.rid for r in load_records() if _nodes_to_blow_up(r) <= 8]

    @pytest.mark.parametrize("rid", SMALL)
    @pytest.mark.parametrize("budget", [3000, sys.maxsize], ids=["3000", "unlimited"])
    def test_matches_reference(self, a0, records, rid, budget):
        record = records[rid]
        base = a0.restrict(record.curves)
        m = _nodes_to_blow_up(record)
        targets = [tuple(c.chain) for c in record.chains]
        bound = _DepthBound.of_chains(targets)
        ref = _Counts()
        every = [(combo, pairs, ref.states)
                 for combo, pairs in _reference_choices(base, m, ref, budget)]
        feasible = [x for x in every if _combo_feasible(base, x[0], targets, bound)]
        for prefix, want in ((None, every),
                             (_ChoicePrefix.of_chains(targets, bound), feasible)):
            got = _Counts()
            seq = [(combo, pairs, got.states)
                   for combo, pairs in _base_choices(base, m, got, budget, prefix)]
            assert seq == want
            assert got.states == ref.states
            if prefix is None:
                assert got.pruned == 0
            elif ref.states <= budget:
                assert got.pruned == ref.states - len(feasible)

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
        cfg = Configuration.build([(c, -2) for c in sorted({c for n in nodes for c in n})],
                                  nodes)
        bound = _DepthBound.of_chains(targets)
        for m in range(len(cfg.nodes) + 1):
            for budget in (5, sys.maxsize):
                ref = _Counts()
                every = [(combo, pairs, ref.states)
                         for combo, pairs in _reference_choices(cfg, m, ref, budget)]
                feasible = [x for x in every
                            if _combo_feasible(cfg, x[0], targets, bound)]
                for prefix, want in ((None, every),
                                     (_ChoicePrefix.of_chains(targets, bound), feasible)):
                    got = _Counts()
                    seq = [(combo, pairs, got.states) for combo, pairs
                           in _base_choices(cfg, m, got, budget, prefix)]
                    assert (seq, got.states) == (want, ref.states), (m, budget)

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
        script = ("from wahlkit.configuration import Configuration\n"
                  "from wahlkit.plans import _greedy_mark\n"
                  "cfg = Configuration.build([('P', -2), ('Q', -5)], [('P', 'Q')])\n"
                  "print(_greedy_mark(cfg).wahl_chains)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("0", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.append(run.stdout.strip())
        assert outputs == ["(('P', 'Q'),)"] * 2

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

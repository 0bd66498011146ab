import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wahlkit.catalog.a0 import frozen_a0
from wahlkit.catalog.records import (ChainSpec, SurfaceRecord, format_record,
                                     parse_record)
from wahlkit.catalog.verify import load_records
from wahlkit.configuration import Configuration
from wahlkit.plans import (BlowupPlan, PlanError, PlanStep, SearchParams,
                           infer_plan, mark_chains, search_constructions)


@pytest.fixture(scope="module")
def a0():
    return frozen_a0()


@pytest.fixture(scope="module")
def records():
    return {r.rid: r for r in load_records()}


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

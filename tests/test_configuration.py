import random
from collections import Counter

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from wahlkit import configuration
from wahlkit.assembly import obstruction_dim
from wahlkit.catalog.a0 import frozen_a0
from wahlkit.catalog.verify import load_expected, load_records
from wahlkit.configuration import (Configuration, ConfigurationError, Curve, Node,
                                   det_exact, geography_check, rank_exact)
from wahlkit.plans import BlowupPlan, PlanError, PlanStep, infer_plan


def cofactor_det(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * cofactor_det(minor)
    return total


small_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n))


def random_configuration(rng):
    r = rng.randint(1, 7)
    names = [f"C{i}" for i in range(r)]
    curves = [(n, rng.randint(-4, -1)) for n in names]
    nodes = []
    for _ in range(rng.randint(0, 10)):
        a, b = rng.choice(names), rng.choice(names)
        if a == b and rng.random() < 0.7:
            continue  # keep self-nodes occasional
        nodes.append((a, b))
    return Configuration.build(curves, nodes)


class TestStructure:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration.build([("A", -2), ("A", -2)], [])

    def test_unknown_node_curve_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration.build([("A", -2)], [("A", "B")])

    def test_pairing_and_self_nodes(self):
        cfg = Configuration.build([("A", -2), ("B", -2)],
                                  [("A", "B"), ("A", "B"), ("A", "A")])
        assert cfg.pairing("A", "B") == 2
        assert cfg.self_nodes("A") == 1
        assert cfg.t2 == 3

    @pytest.mark.parametrize("query", [
        lambda cfg: cfg.curve("X"),
        lambda cfg: cfg.pairing("X", "X"),
        lambda cfg: cfg.intersection_matrix(["A", "X"]),
        lambda cfg: cfg.restrict(["A", "X"]),
    ], ids=["curve", "pairing", "intersection_matrix", "restrict"])
    @pytest.mark.parametrize("built", [False, True], ids=["cold", "warm"])
    def test_unknown_curve_is_a_configuration_error(self, query, built):
        cfg = Configuration.build([("A", -2), ("B", -2)], [("A", "B")])
        if built:
            cfg.intersection_matrix()
        with pytest.raises(ConfigurationError, match="unknown curve 'X'"):
            query(cfg)

    def test_unknown_curve_has_no_neighbors_or_self_nodes(self):
        cfg = Configuration.build([("A", -2), ("B", -2)], [("A", "B"), ("A", "A")])
        assert cfg.neighbors("X") == {} and cfg.self_nodes("X") == 0
        assert cfg.neighbors("A") == {"B": 1} and cfg.self_nodes("A") == 1

    def test_json_round_trip(self):
        cfg = Configuration.build([("A", -2), ("B", -3)], [("A", "B"), ("A", "A")])
        again = Configuration.from_json(cfg.to_json())
        assert again.intersection_matrix(["A", "B"]) == \
            cfg.intersection_matrix(["A", "B"])
        assert again.t2 == cfg.t2

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            Configuration.from_json('{"curves": [], "nodes": [], "extra": 1}')
        with pytest.raises(ConfigurationError):
            Configuration.from_json('{"curves": [{"name": "A", "self_int": -2, '
                                    '"color": "red"}], "nodes": []}')


class TestMatrices:
    def test_i2_restriction(self):
        cfg = Configuration.build([("B1", -2), ("B2", -2)], [("B1", "B2"), ("B1", "B2")])
        assert cfg.intersection_matrix(["B1", "B2"]) == [[-2, 2], [2, -2]]
        assert det_exact(cfg.intersection_matrix()) == 0

    def test_empty_matrix(self):
        cfg = Configuration.build([("A", -2)], [])
        assert cfg.intersection_matrix([]) == []
        assert det_exact([]) == 1

    def test_rank_det_is_kept(self, monkeypatch):
        # one elimination, which obstruction_dim, the ledger and search read
        cfg = Configuration.build([("B1", -2), ("B2", -2), ("C", -3)],
                                  [("B1", "B2"), ("B1", "B2"), ("B2", "C")])
        matrix = cfg.intersection_matrix()
        assert cfg.rank_det == (rank_exact(matrix), det_exact(matrix)) == (3, 2)
        monkeypatch.setattr(configuration, "_bareiss", None)
        assert obstruction_dim(cfg) == 0 and obstruction_dim(cfg, 2) == 1

    @given(small_matrices)
    def test_det_matches_cofactor_oracle(self, rows):
        sym = [[rows[i][j] + rows[j][i] for j in range(len(rows))]
               for i in range(len(rows))]
        assert det_exact(sym) == cofactor_det(sym)
        assert det_exact(rows) == cofactor_det(rows)

    @given(small_matrices, st.randoms(use_true_random=False))
    def test_det_under_permutation(self, rows, rng):
        n = len(rows)
        perm = list(range(n))
        rng.shuffle(perm)
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            cursor = start
            while not seen[cursor]:
                seen[cursor] = True
                cursor = perm[cursor]
                length += 1
            if length % 2 == 0:
                sign = -sign
        # reordering curves conjugates the matrix: determinant unchanged
        conjugated = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert det_exact(conjugated) == det_exact(rows)
        # permuting rows alone flips the sign with the parity
        row_permuted = [rows[perm[i]] for i in range(n)]
        assert det_exact(row_permuted) == sign * det_exact(rows)

    def test_rank(self):
        assert rank_exact([[-2, 2], [2, -2]]) == 1
        assert rank_exact([[1, 0], [0, 1]]) == 2
        assert rank_exact([[0, 0], [0, 0]]) == 0
        # a column with no pivot is skipped, not the end of the elimination
        assert rank_exact([[0, 1, 2], [0, 2, 4], [0, 0, 3]]) == 2
        assert rank_exact([[0, 0, 5, 1], [0, 0, 10, 2]]) == 1
        assert rank_exact([[1, 2], [2, 4], [0, 1]]) == 2
        assert rank_exact([[3, -1, 4]]) == 1 and rank_exact([[0], [0]]) == 0

    def test_rank_and_det_match_sympy(self):
        rng = random.Random(1968)
        shapes = [(0, 0), (1, 1), (1, 5), (5, 1)] + \
            [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(400)]
        for rows, cols in shapes:
            if rng.random() < 0.5 and min(rows, cols) > 1:
                # a product through a narrower middle is rank-deficient
                k = rng.randint(0, min(rows, cols) - 1)
                left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
                right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
                matrix = [[sum(left[i][t] * right[t][j] for t in range(k))
                           for j in range(cols)] for i in range(rows)]
            else:
                matrix = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(cols)]
                          for _ in range(rows)]
            oracle = sympy.Matrix(rows, cols, [x for row in matrix for x in row])
            assert rank_exact(matrix) == oracle.rank(), matrix
            if rows == cols:
                assert det_exact(matrix) == oracle.det(), matrix
            else:
                with pytest.raises(ConfigurationError):
                    det_exact(matrix)


class TestBlowUp:
    def test_simple_node(self):
        cfg = Configuration.build([("A", -2), ("B", -2)], [("A", "B")])
        out = cfg.blow_up(0)
        assert out.curve("A").self_int == -3
        assert out.curve("B").self_int == -3
        assert out.curve("E1").self_int == -1
        assert out.pairing("A", "B") == 0
        assert out.pairing("E1", "A") == 1 and out.pairing("E1", "B") == 1
        assert (out.r, out.t2) == (3, 2)
        assert out.blowup_count == 1

    def test_double_pair_keeps_other_node(self):
        cfg = Configuration.build([("C1", -2), ("C2", -2)], [("C1", "C2"), ("C1", "C2")])
        out = cfg.blow_up(0)
        assert out.pairing("C1", "C2") == 1
        assert out.curve("C1").self_int == -3

    def test_self_node_flagged(self):
        cfg = Configuration.build([("G", -2)], [("G", "G")])
        out = cfg.blow_up(0)
        assert out.curve("G").self_int == -4
        assert out.pairing("E1", "G") == 2

    def test_pk_preserved_randomized(self):
        rng = random.Random(20240)
        done = 0
        while done < 1000:
            cfg = random_configuration(rng)
            if not cfg.nodes:
                continue
            node = rng.choice(cfg.nodes)
            out = cfg.blow_up(node.id)
            assert out.pk_invariants() == cfg.pk_invariants()
            assert (out.r, out.t2) == (cfg.r + 1, cfg.t2 + 1)
            drop = sum(c.self_int for c in out.curves) - \
                sum(c.self_int for c in cfg.curves)
            assert drop == -3  # two decrements plus the new (-1)-curve
            done += 1

    def test_unknown_node(self):
        cfg = Configuration.build([("A", -2)], [])
        with pytest.raises(ConfigurationError):
            cfg.blow_up(0)

    def test_restrict_keeps_the_blow_ups(self):
        out = Configuration.build([("A", -2), ("B", -2)], [("A", "B")]).blow_up(0)
        kept = out.restrict([c.name for c in out.curves])
        assert kept == out and kept.pk_invariants() == out.pk_invariants() == (4, -1)
        node = next(n for n in kept.nodes if n.pair() == ("A", "E1"))
        assert kept.blow_up(node.id).curve("E2").self_int == -1


def stepwise_blow_ups(config, steps, missing=ConfigurationError):
    """Oracle: the steps blown up one at a time, each on a new configuration
    built from all the curves and nodes of the last."""
    for a, b, k in steps:
        pair = tuple(sorted((a, b)))
        between = [n for n in config.nodes if tuple(sorted((n.a, n.b))) == pair]
        if k >= len(between):
            raise missing(f"no node #{k} between {a} and {b}")
        target = between[k]
        name = f"E{config.blowup_count + 1}"
        if any(c.name == name for c in config.curves):
            raise ConfigurationError(f"exceptional name {name} already taken")
        curves = tuple(Curve(c.name, c.self_int - (c.name == target.a) - (c.name == target.b))
                       for c in config.curves) + (Curve(name, -1),)
        next_id = max(n.id for n in config.nodes) + 1
        nodes = tuple(n for n in config.nodes if n is not target) + (
            Node(next_id, name, target.a), Node(next_id + 1, name, target.b))
        config = Configuration(curves, nodes, config.blowup_count + 1)
    return config


def outcome(run, *args):
    """What a run returns, or the type and message of what it raises."""
    try:
        return run(*args)
    except (ConfigurationError, PlanError) as exc:
        return type(exc), str(exc)


# E1, E2 and E4 may already be taken by the time a blow-up names its curve
NAMES = ("A", "B", "C", "E1", "E2", "E4")


@st.composite
def small_configurations(draw):
    """A few curves, doubled pairs and self-nodes among them, and distinct
    node ids in any order."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          max_size=8))
    ids = draw(st.permutations(range(len(pairs) + 2)))
    return Configuration(tuple(Curve(name, draw(st.integers(-4, 0))) for name in names),
                         tuple(Node(i, a, b) for i, (a, b) in zip(ids, pairs)),
                         draw(st.integers(0, 6)))


class TestBlowUpEngine:
    """`Configuration.blow_ups` against the step-by-step oracle: curves, node
    ids and order, `blowup_count` and raised errors."""

    @given(small_configurations(), st.data())
    def test_matches_stepwise(self, base, data):
        # most steps name a node of the configuration so far, in either order
        names = [c.name for c in base.curves] + ["E3", "E5", "E6"]
        config, steps = base, []
        for _ in range(data.draw(st.integers(1, 6))):
            if config.nodes and data.draw(st.integers(0, 5)):
                node = data.draw(st.sampled_from(config.nodes))
                step = data.draw(st.sampled_from([(node.a, node.b), (node.b, node.a)]))
                step += ([n for n in config.nodes if {n.a, n.b} == set(step)].index(node),)
            else:
                step = data.draw(st.tuples(st.sampled_from(names), st.sampled_from(names),
                                           st.integers(0, 2)))
            steps.append(step)
            config = outcome(stepwise_blow_ups, config, [step])
            if not isinstance(config, Configuration):
                break
        plan = BlowupPlan(tuple(PlanStep(*step) for step in steps))
        assert outcome(base.blow_ups, steps) == outcome(stepwise_blow_ups, base, steps)
        assert outcome(plan.execute, base) == \
            outcome(stepwise_blow_ups, base, steps, PlanError)

    @given(small_configurations(), st.integers(0, 9))
    def test_one_step(self, base, node_id):
        node = next((n for n in base.nodes if n.id == node_id), None)
        want = (ConfigurationError, f"unknown node {node_id}") if node is None else \
            outcome(stepwise_blow_ups, base, [(node.a, node.b, [
                n.id for n in base.nodes if {n.a, n.b} == {node.a, node.b}
            ].index(node_id))])
        assert outcome(base.blow_up, node_id) == want

    def test_matches_stepwise_on_the_catalog(self):
        a0 = frozen_a0()
        cases = [(main["curves"], [tuple(step) for step in main["recovered_plan"]])
                 for main in load_expected()["mains"].values() if "recovered_plan" in main]
        for record in load_records():
            base = a0.restrict(record.curves)
            plan = infer_plan(record, base).plan
            cases.append((record.curves, [(s.a, s.b, s.occurrence) for s in plan.steps]))
        assert len(cases) == 37
        for curves, steps in cases:
            base = a0.restrict(curves)
            assert base.blow_ups(steps) == stepwise_blow_ups(base, steps)


class TestPairTable:
    """Every query reads one graph (`self_int`, `meets`) built on first use."""

    @staticmethod
    def _check(cfg):
        """The queries against a plain scan of the curves and the nodes."""
        for a in cfg.curves:
            assert cfg.curve(a.name) == a
            assert cfg.pairing(a.name, a.name) == a.self_int
            others = [node.a if node.b == a.name else node.b for node in cfg.nodes
                      if a.name in (node.a, node.b)]
            assert cfg.self_nodes(a.name) == others.count(a.name)
            around = Counter(other for other in others if other != a.name)
            # in the order of their first nodes, as Counter counts them
            assert list(cfg.neighbors(a.name).items()) == list(around.items())
            for b in cfg.curves:
                if a != b:
                    assert cfg.pairing(a.name, b.name) == sum(
                        {node.a, node.b} == {a.name, b.name} for node in cfg.nodes), (a, b)
        names = [c.name for c in cfg.curves]
        assert cfg.intersection_matrix() == [
            [c.self_int if c.name == b else
             sum({node.a, node.b} == {c.name, b} for node in cfg.nodes)
             for b in names] for c in cfg.curves]

    def test_matches_node_scan_on_a0(self):
        a0 = frozen_a0()
        self._check(a0)
        self._check(a0.restrict(["A2", "A3", "B1", "C1", "C2", "D1"]))

    def test_matches_node_scan_after_blow_ups(self):
        # a self-node on G and a pair G, H meeting twice; each configuration's
        # table is built before it is blown up
        cfg = Configuration.build([("G", -2), ("H", -2), ("K", -2)],
                                  [("G", "G"), ("G", "H"), ("G", "H"), ("H", "K")])
        for pair in [("G", "G"), ("G", "H"), ("E1", "G"), ("G", "H"), ("E2", "H"),
                     ("E1", "G")]:
            self._check(cfg)
            cfg = cfg.blow_up(next(n.id for n in cfg.nodes if n.pair() == pair))
        self._check(cfg)
        assert cfg.pairing("E1", "G") == cfg.pairing("G", "H") == 0
        rng = random.Random(7)
        for _ in range(200):
            cfg = random_configuration(rng)
            self._check(cfg)
            while cfg.nodes and cfg.r < 10:
                cfg = cfg.blow_up(rng.choice(cfg.nodes).id)
                self._check(cfg)

    def test_table_is_not_part_of_the_value(self):
        a0 = frozen_a0()
        sub = a0.restrict(["A2", "A3", "B1", "C1", "C2", "D1"])
        sub = sub.blow_up(sub.nodes[0].id)
        for cfg in (a0, sub):
            text = cfg.to_json()
            fresh = Configuration(cfg.curves, cfg.nodes, cfg.blowup_count)
            for c in cfg.curves:
                cfg.curve(c.name), cfg.neighbors(c.name), cfg.self_nodes(c.name)
            cfg.intersection_matrix()
            assert {"self_int", "meets", "_around"} <= vars(cfg).keys()
            assert cfg == fresh and hash(cfg) == hash(fresh)
            assert repr(cfg) == repr(fresh)
            assert cfg.to_json() == fresh.to_json() == text


    def test_replay_builds_no_graph(self):
        # plan replay blows up configurations nobody queries: building their
        # graph would cost every replayed step
        cfg = Configuration.build([("G", -2), ("H", -2)], [("G", "H"), ("G", "H")])
        plan = BlowupPlan((PlanStep("G", "H"), PlanStep("E1", "G"), PlanStep("G", "H")))
        out = plan.execute(cfg)
        for config in (cfg, cfg.blow_up(0), out):
            assert not {"self_int", "meets", "_around"} & vars(config).keys()
        assert out.blowup_count == 3


class TestInvariants:
    def test_log_chern_examples(self):
        six = Configuration.build(
            [(n, -2) for n in ("C1", "C2", "B1", "B3", "A2", "D1")],
            [("C1", "C2"), ("C1", "C2"), ("C1", "A2"), ("C2", "D1"),
             ("B1", "A2"), ("B1", "D1"), ("B3", "A2"), ("B3", "D1")])
        assert six.log_chern() == (4, 20)
        assert six.pk_invariants() == (2, 2)
        empty = Configuration.build([], [])
        assert empty.log_chern() == (0, 24)
        assert empty.pk_invariants() == (0, 0)

    def test_single_wahl_chain_has_p_one(self):
        chain = (4, 2, 3, 5, 4, 2, 2)
        curves = [(f"L{i}", -b) for i, b in enumerate(chain)]
        nodes = [(f"L{i}", f"L{i+1}") for i in range(len(chain) - 1)]
        cfg = Configuration.build(curves, nodes)
        assert cfg.pk_invariants()[0] == 1

    def test_geography_examples(self):
        geo = geography_check(2, 9)
        assert geo.admissible and (geo.r, geo.t2, geo.nodes_to_blow_up) == (20, 29, 11)
        assert not geography_check(2, 14).admissible
        geo = geography_check(2, 2)
        assert (geo.r, geo.t2, geo.nodes_to_blow_up) == (6, 8, 4)
        with pytest.raises(ConfigurationError):
            geography_check(-1, 2)
        with pytest.raises(ConfigurationError):
            geography_check(2, 0)

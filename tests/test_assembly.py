import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wahlkit.assembly import (AssemblyError, MarkedSurface, k_squared,
                              nef_ample_check, obstruction_dim, pi1_verdict,
                              surface_report)
from wahlkit.chains import wahl_generate, wahl_singularity
from wahlkit.configuration import Configuration, ConfigurationError, det_exact


def chain_config(*chains, extra_curves=(), extra_nodes=()):
    """Lay out disjoint chains [b1..bl] as named curve paths."""
    curves, nodes = [], []
    for ci, entries in enumerate(chains):
        names = [f"K{ci}_{i}" for i in range(len(entries))]
        curves += [(n, -b) for n, b in zip(names, entries)]
        nodes += [(names[i], names[i + 1]) for i in range(len(entries) - 1)]
    curves += list(extra_curves)
    nodes += list(extra_nodes)
    return Configuration.build(curves, nodes)


def star_tree(*arms):
    """(-2)-curves and nodes: a centre Z with arms of the given lengths."""
    curves, nodes = [("Z", -2)], []
    for i, length in enumerate(arms):
        names = ["Z"] + [f"T{i}_{k}" for k in range(length)]
        curves += [(name, -2) for name in names[1:]]
        nodes += list(zip(names, names[1:]))
    return curves, nodes


def chain_names(config, ci):
    return tuple(c.name for c in config.curves if c.name.startswith(f"K{ci}_"))


def _pairwise_valid(surface, wahl, ade):
    """The marking rules checked pair by pair, as the validator once did,
    with ADE chains also pairwise disjoint: the oracle for the one-pass
    validator."""
    chains = wahl + ade
    names = [c for chain in chains for c in chain]
    if not all(chains) or len(set(names)) != len(names):
        return False
    for chain in chains:
        if any(surface.self_nodes(c) for c in chain):
            return False
        if any(surface.pairing(a, b) != 1 for a, b in zip(chain, chain[1:])):
            return False
        if any(surface.pairing(a, b) for i, a in enumerate(chain) for b in chain[i + 2:]):
            return False
    strings = [[-surface.curve(c).self_int for c in chain] for chain in wahl]
    if any(min(s) < 2 or wahl_singularity(s) is None for s in strings):
        return False
    if any(surface.curve(c).self_int != -2 for chain in ade for c in chain):
        return False
    return not any(surface.pairing(a, b) for i, x in enumerate(chains)
                   for y in chains[i + 1:] for a in x for b in y)


@st.composite
def _small_markings(draw):
    """Up to six curves and a marking on them.

    The chains are cut from an ordering of the curves, plus at most one
    more chain that may be empty, repeat a curve or overlap the others.
    Each consecutive pair gets a node (rarely left out), then up to four
    random nodes are added (self-nodes and repeats allowed).  Chain curves
    mostly carry a fitting string: a Wahl string, or all (-2) for ADE.
    """
    n = draw(st.integers(1, 6))
    names = [f"C{i}" for i in range(n)]
    order = draw(st.permutations(names))
    bounds = [0] + sorted(draw(st.sets(st.integers(0, n), max_size=4)))
    chains = [tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    chains += draw(st.lists(st.one_of(
        st.tuples(st.integers(0, n), st.integers(0, n)).map(lambda ab: order[ab[0]:ab[1]]),
        st.lists(st.sampled_from(names), max_size=3)).map(tuple), max_size=1))
    wahl = [draw(st.booleans()) for _ in chains]
    self_int = {name: -draw(st.integers(1, 5)) for name in names}
    for chain, is_wahl in zip(chains, wahl):
        if chain and draw(st.integers(0, 4)):
            fit = (draw(st.sampled_from(sorted(wahl_generate(len(chain)))))
                   if is_wahl else (2,) * len(chain))
            self_int.update((c, -b) for c, b in zip(chain, fit))
    nodes = [pair for chain in chains for pair in zip(chain, chain[1:])
             if draw(st.integers(0, 9))]
    nodes += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                           max_size=4))
    return (list(self_int.items()), nodes,
            tuple(c for c, w in zip(chains, wahl) if w),
            tuple(c for c, w in zip(chains, wahl) if not w))


class TestMarking:
    def test_valid_marking(self):
        cfg = chain_config((4, 5, 3, 2, 2))
        ms = MarkedSurface(cfg, (chain_names(cfg, 0),))
        assert ms.wahl_data()[0].n == 11

    def test_non_wahl_string_rejected(self):
        cfg = chain_config((4, 4))
        with pytest.raises(AssemblyError):
            MarkedSurface(cfg, (chain_names(cfg, 0),))

    def test_overlapping_chains_rejected(self):
        cfg = chain_config((4,))
        with pytest.raises(AssemblyError):
            MarkedSurface(cfg, (("K0_0",), ("K0_0",)))

    def test_chain_curves_must_be_adjacent_once(self):
        cfg = Configuration.build([("A", -3), ("B", -5), ("C", -2), ("D", -2)],
                                  [("A", "B"), ("A", "B"), ("B", "C"), ("C", "D")])
        with pytest.raises(AssemblyError):
            MarkedSurface(cfg, (("A", "B", "C", "D"),))

    def test_minus_one_curve_is_no_wahl_chain(self):
        cfg = chain_config((4,), extra_curves=[("G", -1)])
        with pytest.raises(AssemblyError):
            MarkedSurface(cfg, (("G",),))

    def test_ade_only_minus_two(self):
        cfg = chain_config((4,), extra_curves=[("R", -3)])
        with pytest.raises(AssemblyError):
            MarkedSurface(cfg, (chain_names(cfg, 0),), (("R",),))

    def test_ade_disjoint_from_wahl(self):
        cfg = chain_config((4,), extra_curves=[("R", -2)],
                           extra_nodes=[("R", "K0_0")])
        with pytest.raises(AssemblyError):
            MarkedSurface(cfg, (chain_names(cfg, 0),), (("R",),))


    def test_ade_chains_that_meet_rejected(self):
        cfg = Configuration.build([("X", -2), ("Y", -2)], [("X", "Y")])
        with pytest.raises(AssemblyError):
            MarkedSurface(cfg, (), (("X",), ("Y",)))

    @pytest.mark.parametrize("wahl, ade", [
        ((("K0_0", "U"),), ()), ((("U",),), ()), ((), (("U", "R"),)), ((), (("U",),)),
    ])
    def test_unknown_curve_is_a_configuration_error(self, wahl, ade):
        cfg = chain_config((4,), extra_curves=[("R", -2)])
        with pytest.raises(ConfigurationError):
            MarkedSurface(cfg, wahl, ade)

    @settings(max_examples=400)
    @given(_small_markings())
    # one marking that passes, then one that breaks each rule on nodes
    @example(([("C0", -4), ("C1", -2), ("C2", -2)], [("C1", "C2")],
              (("C0",),), (("C1", "C2"),)))
    @example(([("C0", -2), ("C1", -2)], [("C0", "C1")], (), (("C0",), ("C1",))))
    @example(([("C0", -2), ("C1", -2), ("C2", -2)], [("C0", "C1"), ("C2", "C1")],
              (), (("C0", "C1"), ("C2",))))
    @example(([("C0", -2), ("C1", -2)], [("C0", "C1"), ("C0", "C1")], (), (("C0", "C1"),)))
    @example(([("C0", -2), ("C1", -2), ("C2", -2)], [("C0", "C1"), ("C1", "C2"), ("C0", "C2")],
              (), (("C0", "C1", "C2"),)))
    @example(([("C0", -4)], [("C0", "C0")], (("C0",),), ()))
    @example(([("C0", -2)], [], (), (("C0",), ("C0",))))
    def test_one_pass_matches_pairwise_rules(self, marking):
        curves, nodes, wahl, ade = marking
        cfg = Configuration.build(curves, nodes)
        try:
            MarkedSurface(cfg, wahl, ade)
            accepted = True
        except AssemblyError:
            accepted = False
        assert accepted == _pairwise_valid(cfg, wahl, ade)


class TestNefAmple:
    def test_t_join_is_nef_only_with_contraction(self):
        cfg = chain_config((4,), (4,), extra_curves=[("G", -1)],
                           extra_nodes=[("G", "K0_0"), ("G", "K1_0")])
        ms = MarkedSurface(cfg, (("K0_0",), ("K1_0",)))
        report = nef_ample_check(ms)
        assert report.status == "nef-only"
        assert report.canonical_ample
        joint = report.contractions[0]
        assert (joint.result.m, joint.result.q) == (8, 3)
        assert joint.t_type is not None and joint.t_type.d == 2

    def test_single_attachment_not_nef(self):
        cfg = chain_config((4,), extra_curves=[("G", -1)],
                           extra_nodes=[("G", "K0_0")])
        ms = MarkedSurface(cfg, (("K0_0",),))
        report = nef_ample_check(ms)
        assert report.status == "not-nef"
        assert report.witnesses[0].curve == "G"

    def test_isolated_minus_one_not_nef(self):
        cfg = chain_config((4,), extra_curves=[("G", -1)])
        ms = MarkedSurface(cfg, (("K0_0",),))
        assert nef_ample_check(ms).status == "not-nef"

    def test_free_deep_curve_not_nef(self):
        cfg = chain_config((4,), extra_curves=[("R", -3)])
        ms = MarkedSurface(cfg, (chain_names(cfg, 0),))
        report = nef_ample_check(ms)
        assert report.status == "not-nef"
        assert report.witnesses[0].kind == "bad-free-curve"

    def test_free_two_curve_blocks_ample(self):
        # strict joins but an untouched (-2)-curve away from the chains
        cfg = chain_config((4,), (2, 5), extra_curves=[("G", -1), ("R", -2)],
                           extra_nodes=[("G", "K0_0"), ("G", "K1_0"),
                                        ("G", "K1_0")])
        ms = MarkedSurface(cfg, (("K0_0",), chain_names(cfg, 1)))
        report = nef_ample_check(ms)
        assert report.status == "nef-only"
        assert any(w.kind == "free-two-isolated" for w in report.warnings)
        # the stray curve R alone contracts to an A1 point
        assert report.canonical_ample

    def test_multiplicity_two_meeting(self):
        # G meets the (-4)-curve twice: s = -1 exactly
        cfg = chain_config((4,), extra_curves=[("G", -1)],
                           extra_nodes=[("G", "K0_0"), ("G", "K0_0")])
        ms = MarkedSurface(cfg, (("K0_0",),))
        report = nef_ample_check(ms)
        assert report.status == "nef-only"
        assert report.contractions[0].result is None  # single-chain join

    def test_t_join_with_k_squared_not_positive_is_not_canonical_ample(self):
        # the join of two [4] chains is a T-singularity, but three recorded
        # blow-ups leave K^2 = 2 - 3 = -1
        cfg = chain_config((4,), (4,), extra_curves=[("G", -1)],
                           extra_nodes=[("G", "K0_0"), ("G", "K1_0")])
        cfg = Configuration(cfg.curves, cfg.nodes, 3)
        report = nef_ample_check(MarkedSurface(cfg, (("K0_0",), ("K1_0",))))
        assert report.status == "nef-only"
        assert report.contractions[0].t_type is not None
        assert not report.canonical_ample
        assert [w.kind for w in report.warnings] == ["k-squared"]

    def test_equality_curve_meeting_one_chain_twice_is_not_canonical_ample(self):
        # G meets the (-4)-curve twice: its contraction is no T-join
        cfg = chain_config((4,), extra_curves=[("G", -1)],
                           extra_nodes=[("G", "K0_0"), ("G", "K0_0")])
        report = nef_ample_check(MarkedSurface(cfg, (("K0_0",),)))
        assert report.status == "nef-only"
        assert report.contractions[0].result is None
        assert report.warnings == ()
        assert not report.canonical_ample

    @pytest.mark.parametrize("extra_curves, extra_nodes", [
        ([("G", -1)], [("G", "K0_0")]),
        ([("R", -3)], []),
    ], ids=["negative-curve", "bad-free-curve"])
    def test_not_nef_is_not_canonical_ample(self, extra_curves, extra_nodes):
        cfg = chain_config((4,), extra_curves=extra_curves, extra_nodes=extra_nodes)
        report = nef_ample_check(MarkedSurface(cfg, (("K0_0",),)))
        assert report.status == "not-nef"
        assert not report.canonical_ample

    @pytest.mark.parametrize("curves, nodes, ade, ample", [
        ([("R", -2), ("S", -2)], [("R", "S"), ("R", "S")], (), False),
        ([("R", -2)], [("R", "R")], (), False),
        ([("R", -2), ("S", -2), ("T", -2)], [("R", "S"), ("S", "T"), ("R", "T")], (), False),
        ([("R", -2), ("S", -2)], [("R", "S")], (), True),
        (*star_tree(1, 1, 1), (), True),
        (*star_tree(1, 1, 1, 1), (), False),
        (*star_tree(1, 2, 4), (), True),
        (*star_tree(1, 2, 5), (), False),
        (*star_tree(1, 2, 2), (), True),
        (*star_tree(1, 2, 3), (), True),
        (*star_tree(2, 2, 2), (), False),
        (*star_tree(1, 3, 3), (), False),
        ([("R", -2), ("S", -2), ("T", -2)], [("R", "S"), ("T", "R")], (("R", "S"),), True),
        ([("R", -2), ("S", -2), ("T", -2)], [("R", "S"), ("T", "R"), ("T", "S")],
         (("R", "S"),), False),
        ([("R", -2), ("S", -2), ("U", -2), ("T", -2)],
         [("R", "S"), ("S", "U"), ("T", "S")], (("R", "S", "U"),), True),
        ([("R", -2), ("T", -2)], [("T", "R"), ("T", "R")], (("R",),), False),
    ], ids=["i2-cycle", "nodal", "i3-cycle", "a2", "d4", "affine-d4", "e8", "affine-e8",
            "e6", "e7", "affine-e6", "affine-e7", "a3-through-duval", "i3-through-duval",
            "d4-through-duval", "i2-through-duval"])
    def test_stray_two_curves_contract_to_rational_double_points(self, curves, nodes,
                                                                  ade, ample):
        # a marked [4] beside stray (-2)-curves, which are zero curves: the
        # canonical model contracts them, with the ADE chains they meet, to
        # rational double points, which needs ADE Dynkin trees; a cycle, two
        # curves meeting twice, a nodal curve or an affine tree leave it not
        # ample
        cfg = chain_config((4,), extra_curves=curves, extra_nodes=nodes)
        report = nef_ample_check(MarkedSurface(cfg, (("K0_0",),), ade))
        assert report.status == "nef-only"
        assert report.canonical_ample == ample
        flagged = [w for w in report.warnings if w.kind == "zero-curves-not-ade"]
        assert len(flagged) == (0 if ample else 1)


class TestReports:
    def test_k_squared(self):
        cfg = chain_config((4,), (4, 2, 3, 5, 4, 2, 2))
        ms = MarkedSurface(cfg, (chain_names(cfg, 0), chain_names(cfg, 1)))
        assert k_squared(ms) == 8  # no blow-ups recorded on a synthetic layout

    def test_singularity_report(self):
        cfg = chain_config((3, 2, 6, 2), extra_curves=[("R1", -2), ("R2", -2)],
                           extra_nodes=[("R1", "R2")])
        ms = MarkedSurface(cfg, (chain_names(cfg, 0),), (("R1", "R2"),))
        assert ms.wahl_data()[0].n == 7 and ms.wahl_data()[0].a == 3
        assert surface_report(ms, cfg).singularities == ("1/49(1,20)", "A2 = 1/3(1,2)")

    def test_obstruction_dim(self):
        i2 = Configuration.build([("B1", -2), ("B2", -2)],
                                 [("B1", "B2"), ("B1", "B2")])
        assert obstruction_dim(i2) == 1
        assert obstruction_dim(i2, ambient_rank_cap=1) == 1
        single = Configuration.build([("A", -2)], [])
        assert obstruction_dim(single) == 0

    def test_surface_report_lines_stable(self):
        cfg = chain_config((4,), (4,), extra_curves=[("G", -1)],
                           extra_nodes=[("G", "K0_0"), ("G", "K1_0")])
        ms = MarkedSurface(cfg, (("K0_0",), ("K1_0",)))
        report = surface_report(ms, cfg)
        assert report.k2 == 2 and report.ample.canonical_ample
        assert surface_report(ms, cfg) == report


class TestPi1:
    def test_coprime_join_trivial(self):
        cfg = chain_config((4,), (4, 2, 3, 5, 4, 2, 2), extra_curves=[("G", -1)],
                           extra_nodes=[("G", "K0_0"), ("G", "K1_0")])
        ms = MarkedSurface(cfg, (("K0_0",), chain_names(cfg, 1)))
        report = pi1_verdict(ms)
        assert report.status == "trivial"
        assert "gcd(2,27)=1" in report.per_chain[0]

    def test_end_curve_alone_trivial(self):
        cfg = chain_config((4,), extra_curves=[("C", -2)],
                           extra_nodes=[("C", "K0_0")])
        ms = MarkedSurface(cfg, (("K0_0",),))
        assert pi1_verdict(ms).status == "trivial"

    def test_bare_chain_inconclusive(self):
        cfg = chain_config((4,))
        report = pi1_verdict(MarkedSurface(cfg, (("K0_0",),)))
        assert report.status == "inconclusive"

    def test_non_coprime_join_inconclusive(self):
        # two chains with the same index joined by one curve
        cfg = chain_config((4,), (4,), extra_curves=[("G", -1)],
                           extra_nodes=[("G", "K0_0"), ("G", "K1_0")])
        ms = MarkedSurface(cfg, (("K0_0",), ("K1_0",)))
        assert pi1_verdict(ms).status == "inconclusive"

    def test_meridian_propagation(self):
        # chain [5,2] killed by an external curve at its second position
        # (t=1); a second chain [5,2] dies only after the first is dead
        cfg = chain_config((5, 2), (5, 2),
                           extra_curves=[("C", -2), ("G", -1)],
                           extra_nodes=[("C", "K0_1"),
                                        ("G", "K0_0"), ("G", "K1_1")])
        ms = MarkedSurface(cfg, (chain_names(cfg, 0), chain_names(cfg, 1)))
        report = pi1_verdict(ms)
        assert report.status == "trivial"

    def test_never_reports_nontrivial(self):
        cfg = chain_config((5, 2))
        report = pi1_verdict(MarkedSurface(cfg, (chain_names(cfg, 0),)))
        assert report.status in ("trivial", "inconclusive")

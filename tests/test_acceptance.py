"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
exact; the only randomness is seeded.  Criteria 1-3 must finish inside a
second each, criterion 5 inside thirty.
"""
import random
import time
from math import gcd

import pytest

from wahlkit.assembly import (MarkedSurface, k_squared, nef_ample_check,
                              obstruction_dim, pi1_verdict)
from wahlkit.chains import (blow_down_compose, CyclicQuotient, discrepancies,
                            fibonacci, hj_eval, hj_expand, meridian_exponents,
                            meridian_order, t_singularity, wahl_generate,
                            wahl_singularity)
from wahlkit.configuration import Configuration, det_exact, geography_check
from wahlkit.catalog.a0 import frozen_a0
from wahlkit.catalog.records import ChainSpec, SurfaceRecord
from wahlkit.catalog.verify import _plan_from_json, load_expected, load_records
from wahlkit.plans import infer_plan, mark_chains


@pytest.fixture(scope="module")
def a0():
    return frozen_a0()


@pytest.fixture(scope="module")
def records():
    return {r.rid: r for r in load_records()}


@pytest.fixture(scope="module")
def expected():
    return load_expected()


def _announce(criterion, detail):
    print(f"\n[criterion {criterion}] pass: {detail}")


def _stated_chain_ok(n, a, chain):
    sing = wahl_singularity(chain)
    return sing is not None and sing.n == n and a in (sing.a, sing.n - sing.a)


def test_criterion_1_chain_ledger(records, expected):
    start = time.monotonic()
    checked = 0
    for data in expected["mains"].values():
        for spec in data["chains"]:
            assert _stated_chain_ok(spec["n"], spec["a"], tuple(spec["chain"]))
            checked += 1
    for record in records.values():
        for spec in record.chains:
            assert _stated_chain_ok(spec.n, spec.a, spec.chain)
            checked += 1
    # the anchored examples, bit-exact
    sing = wahl_singularity((4, 2, 3, 5, 4, 2, 2))
    assert (sing.n, sing.a) == (27, 8)
    c46 = tuple(expected["mains"]["7"]["chains"][1]["chain"])
    assert hj_expand(2168 ** 2, 2168 * 459 - 1) == tuple(reversed(c46))
    c47 = tuple(expected["mains"]["9"]["chains"][1]["chain"])
    assert hj_expand(10730 ** 2, 10730 * 2271 - 1) == tuple(reversed(c47))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(1, f"{checked} stated chains recognized exactly in {elapsed:.2f}s")


def test_criterion_2_determinant_ledger(a0, records, expected):
    start = time.monotonic()
    main_dets = [-28, -76, -136, -264, -192, -104, -160, -16]
    for (k2s, data), want in zip(sorted(expected["mains"].items(),
                                        key=lambda kv: int(kv[0])), main_dets):
        got = a0.intersection_matrix(data["curves"])
        assert got == data["matrix"], f"matrix mismatch at K^2={k2s}"
        assert det_exact(got) == want == data["det"]
    record_dets = [-40, -32, -28, -96, -112, -276, -165, -165, -240, -352,
                   -272, -240, -240, -240, -240, -272, -272, -336, -64, -64,
                   -256, -208, -160, -160, -64, -64, -16, -16]
    rids = sorted((rid for rid in records if rid != "3.0"),
                  key=lambda r: tuple(map(int, r.split("."))))
    assert len(rids) == 28
    for rid, want in zip(rids, record_dets):
        record = records[rid]
        assert record.det == want
        got = det_exact(a0.restrict(record.curves).intersection_matrix())
        assert got == want, f"({rid}) det {got} != {want}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(2, f"8 printed matrices and 28 record determinants exact "
                 f"in {elapsed:.2f}s")


def test_criterion_3_wormhole_ledger(records, expected):
    start = time.monotonic()
    targets = {("4.2", "4.3"): (24964, 9165),
               ("5.3", "5.4"): (111556, 42753),
               ("6.3", "6.4"): (238816, 188257),
               ("7.2", "7.3"): (7051195, 1861309),
               ("8.3", "8.4"): (11737476, 4159165)}
    for (r1, r2), (m, q) in targets.items():
        want = CyclicQuotient(m, q).normalize()
        results = []
        for rid in (r1, r2):
            first, second = records[rid].chains
            results.append(blow_down_compose(first.chain, second.chain))
        assert results[0] == results[1] == want, (r1, r2)
    tjoins = {"2.2": 18, "3.1": 34, "4.4": 92, "5.2": 175, "6.2": 394,
              "8.2": 1631}
    for rid, n in tjoins.items():
        first, second = records[rid].chains
        assert first.chain == second.chain
        cq = blow_down_compose(first.chain, second.chain)
        assert cq.m == 2 * n * n, rid
        t = t_singularity(cq.m, cq.q)
        assert t is not None and (t.d, t.n) == (2, n)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(3, f"5 wormhole pairs and 6 T-joins exact in {elapsed:.2f}s")


def test_criterion_4_geography_suite(a0, records, expected):
    for k2 in range(1, 10):
        assert geography_check(2, k2).admissible
    cases = []
    for record in records.values():
        cases.append((record.curves, record.k2, len(record.chains)))
    for k2s, data in expected["mains"].items():
        # the families are (20 - 2K^2)-dimensional
        assert data["ksba_dim"] == 20 - 2 * int(k2s)
        cases.append((tuple(data["curves"]), (20 - data["ksba_dim"]) // 2, 2))
    for curves, k2, chain_count in cases:
        sub = a0.restrict(curves)
        p, k = sub.pk_invariants()
        assert p == chain_count and k == k2
        assert sub.r == p + 2 * k2
        assert sub.t2 == 3 * k2 + p
        c1, c2 = sub.log_chern()
        assert c1 == 2 * k2
        assert c2 == 24 - p - k2
        assert 5 * k2 + 3 * p <= 72  # K^2 <= 14 - (3P-2)/5 cleared of fractions
        assert obstruction_dim(sub) == 0
    _announce(4, f"geography identities exact on {len(cases)} constructions")


def test_criterion_5_calculus_properties():
    start = time.monotonic()
    rng = random.Random(20260809)
    # 10^4 round trips from random fractions
    for _ in range(10000):
        m = rng.randint(2, 10 ** 9)
        q = rng.randint(1, m - 1)
        if gcd(m, q) != 1:
            continue
        chain = hj_expand(m, q)
        assert hj_eval(chain) == (m, q)
    # 10^4 random chains: round trip, exact discrepancy system, meridians
    for _ in range(10000):
        chain = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 8)))
        m, q = hj_eval(chain)
        assert hj_expand(m, q) == chain
        assert meridian_order(chain) == m
    for _ in range(500):
        chain = tuple(rng.randint(2, 7) for _ in range(rng.randint(1, 7)))
        ds = discrepancies(chain)
        assert all(-1 < d <= 0 for d in ds)
    # complete Wahl enumeration through length 12
    for length in range(1, 13):
        chains = wahl_generate(length)
        assert len(chains) == 2 ** (length - 1)
        top = fibonacci(length)
        extremal = []
        for chain in chains:
            assert sum(chain) == 3 * length + 1
            sing = wahl_singularity(chain)
            assert sing.n <= top
            if sing.n == top:
                extremal.append(chain)
        if length >= 2:
            assert len(extremal) == 2
            one, other = extremal
            assert one == tuple(reversed(other))
            for chain in extremal:
                assert sorted((chain.count(2), chain.count(3), chain.count(5))
                              for chain in extremal) == [(1, length - 2, 1)] * 2
    # group-presentation oracle for every chain of length <= 5
    import sympy
    from sympy.matrices.normalforms import smith_normal_form
    oracle_cases = [c for k in range(1, 6) for c in wahl_generate(k)]
    oracle_cases += [tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 5)))
                     for _ in range(40)]
    for chain in oracle_cases:
        l = len(chain)
        m, _ = hj_eval(chain)
        t = meridian_exponents(chain)
        p = [0, 1]
        for i in range(1, l + 1):
            p.append(chain[i - 1] * p[i] - p[i - 1])
        assert p[l + 1] == m
        assert all(p[i] % m == (t[i - 1] * p[l]) % m for i in range(1, l + 1))
        rel = sympy.zeros(l, l)
        for i in range(l):
            rel[i, i] = -chain[i]
            if i:
                rel[i, i - 1] = 1
            if i < l - 1:
                rel[i, i + 1] = 1
        snf = smith_normal_form(rel)
        assert abs(snf[l - 1, l - 1]) == m
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _announce(5, f"20000+ random cases and full enumeration to length 12 "
                 f"in {elapsed:.1f}s")


def test_criterion_6_engine_properties():
    rng = random.Random(97)
    done = 0
    while done < 1000:
        r = rng.randint(1, 7)
        names = [f"C{i}" for i in range(r)]
        curves = [(n, rng.randint(-4, -1)) for n in names]
        nodes = []
        for _ in range(rng.randint(1, 9)):
            a, b = rng.choice(names), rng.choice(names)
            nodes.append((a, b))
        cfg = Configuration.build(curves, nodes)
        node = rng.choice(cfg.nodes)
        out = cfg.blow_up(node.id)
        assert out.pk_invariants() == cfg.pk_invariants()
        assert (out.r, out.t2) == (cfg.r + 1, cfg.t2 + 1)
        done += 1

    def cofactor(matrix):
        n = len(matrix)
        if n == 0:
            return 1
        if n == 1:
            return matrix[0][0]
        return sum((-1) ** j * matrix[0][j] *
                   cofactor([row[:j] + row[j + 1:] for row in matrix[1:]])
                   for j in range(n))

    for _ in range(300):
        n = rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_exact(matrix) == cofactor(matrix)

    cfg = Configuration.build([("X", -4), ("Y", -4), ("G", -1)],
                              [("G", "X"), ("G", "Y")])
    ms = MarkedSurface(cfg, (("X",), ("Y",)))
    report = nef_ample_check(ms)
    assert report.status == "nef-only"
    joint = report.contractions[0]
    assert (joint.result.m, joint.result.q) == (8, 3)
    assert (joint.t_type.d, joint.t_type.n, joint.t_type.a) == (2, 2, 1)
    _announce(6, "1000 blow-ups preserve (P,K); dets match the cofactor "
                 "oracle; [4]-1-[4] contracts to 1/8(1,3)")


def test_criterion_7_plan_inference(a0, records):
    for rid in ("2.1", "2.2"):
        record = records[rid]
        start = time.monotonic()
        result = infer_plan(record, a0.restrict(record.curves))
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        assert result.success, rid
        report = result.report
        assert k_squared(result.marked) == 2
        assert report.ample.canonical_ample
        assert report.obstruction == 0
        got = sorted((s.n, min(s.a, s.n - s.a)) for s in result.marked.wahl_data())
        want = sorted((c.n, min(c.a, c.n - c.a)) for c in record.chains)
        assert got == want
    # an impossible claim fails loudly, never silently
    base = records["2.1"]
    wrong = SurfaceRecord("2.9", 2, base.curves, base.det, base.steps,
                          (ChainSpec(3, 1, (5, 2)),
                           ChainSpec(8, 3, (3, 5, 3, 2))))
    result = infer_plan(wrong, a0.restrict(wrong.curves), max_states=20000)
    assert not result.success
    assert result.summary().startswith("(2.9) no plan after ")
    _announce(7, "records (2.1) and (2.2) inferred and certified; "
                 "impossible claims produce failure reports")


def _certified_main(a0, data):
    """A main's frozen plan, marked and certified as the ledger does it:
    replayed and marked as the stated chains on the construction's own
    curves, then replayed on the whole of A0 with those Wahl chains and the
    Du Val chains marked."""
    plan = _plan_from_json(data["recovered_plan"])
    own = mark_chains(plan.execute(a0.restrict(data["curves"])),
                      [tuple(c["chain"]) for c in data["chains"]])
    return MarkedSurface(plan.execute(a0), own.wahl_chains,
                         tuple(tuple(ch) for ch in data["duval"]))


def test_criterion_8_pi1_suite(a0, records, expected):
    # the coprime condition of the first construction
    verdict = pi1_verdict(_certified_main(a0, expected["mains"]["2"]))
    assert verdict.status == "trivial"
    assert any("gcd(2,27)=1" in note for note in verdict.per_chain)

    # the honest inconclusive case
    bare = Configuration.build([("W", -4)], [])
    assert pi1_verdict(MarkedSurface(bare, (("W",),))).status == "inconclusive"

    # the anchored exponents: unconditionally in the chain arithmetic...
    c46 = tuple(expected["mains"]["7"]["chains"][1]["chain"])
    exps = meridian_exponents(tuple(reversed(c46)))[::-1]
    assert exps[4] == 9 and exps[8] == 307
    # ...and conditionally tied to the curves once the plan is recovered
    data7 = expected["mains"]["7"]
    recovered = "recovered_plan" in data7
    if recovered:
        ms7 = _certified_main(a0, data7)
        long_chain = max(ms7.wahl_chains, key=len)
        entries = [-ms7.surface.curve(c).self_int for c in long_chain]
        anchored = meridian_exponents(entries[::-1])[::-1]
        spots = {name: anchored[i] for i, name in enumerate(long_chain)
                 if name in ("F3", "F11")}
        assert spots == {"F3": 9, "F11": 307}
        assert pi1_verdict(ms7).status == "trivial"
        condition = "plan recovered: F3 -> 9, F11 -> 307 anchored"
    else:
        condition = "plan not recovered; exponents verified in the abstract chain"
    _announce(8, f"coprime condition trivial, inconclusive honest; {condition}")

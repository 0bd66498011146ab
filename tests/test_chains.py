import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wahlkit.catalog.verify import load_expected, load_records
from wahlkit.chains import (ChainError, CyclicQuotient, blow_down_compose,
                            contract_ones, discrepancies, fibonacci, hj_eval,
                            hj_expand, is_wahl, length_bound,
                            meridian_exponents, meridian_order, recognize_wahl,
                            t_singularity, wahl_generate, wahl_singularity)

coprime_pairs = st.integers(2, 10 ** 6).flatmap(
    lambda m: st.integers(1, m - 1).map(lambda q: (m, q))).filter(
    lambda mq: gcd(*mq) == 1)

chains = st.lists(st.integers(2, 9), min_size=1, max_size=12).map(tuple)


def continued_fraction(chain):
    """m/q = b_1 - 1/(b_2 - ...), one entry at a time: the reference for hj_eval."""
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - 1 / value
    return value


def solved_discrepancies(chain):
    """-b_i d_i + d_{i-1} + d_{i+1} = b_i - 2, with d_0 = d_{l+1} = 0, solved
    in Fractions by tridiagonal elimination: the reference for discrepancies.

    Forward, d_i = c_i + e_i d_{i+1}; then back from d_{l+1} = 0.
    """
    coeffs = []
    c, e = Fraction(0), Fraction(0)
    for b in chain:
        c, e = (2 - b + c) / (b - e), 1 / (b - e)
        coeffs.append((c, e))
    ds = [Fraction(0)]
    for c, e in reversed(coeffs):
        ds.append(c + e * ds[-1])
    return tuple(ds[:0:-1])


class TestHJ:
    def test_expand_examples(self):
        assert hj_expand(729, 215) == (4, 2, 3, 5, 4, 2, 2)
        assert hj_expand(4, 1) == (4,)
        assert hj_expand(324, 125) == (3, 3, 2, 6, 3, 2)

    def test_eval_examples(self):
        assert hj_eval([4, 5, 3, 2, 2]) == (121, 32)
        assert hj_eval([4]) == (4, 1)

    def test_eval_reversal_inverts_twist(self):
        m, q = hj_eval([3, 2, 3, 5, 3, 2])
        m2, q2 = hj_eval([2, 3, 5, 3, 2, 3])
        assert m == m2
        assert q * q2 % m == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ChainError):
            hj_expand(9, 3)
        with pytest.raises(ChainError):
            hj_expand(5, 5)
        with pytest.raises(ChainError):
            hj_eval([3, 1, 3])
        with pytest.raises(ChainError):
            hj_eval([])

    @given(coprime_pairs)
    @example((999997, 999996))  # a chain of 999996 2s
    def test_round_trip_from_fraction(self, mq):
        m, q = mq
        chain = hj_expand(m, q)
        assert all(b >= 2 for b in chain)
        assert hj_eval(chain) == (m, q)

    @given(chains)
    def test_round_trip_from_chain(self, chain):
        m, q = hj_eval(chain)
        assert 0 < q < m and gcd(m, q) == 1
        assert Fraction(m, q) == continued_fraction(chain)
        assert hj_expand(m, q) == chain


class TestWahlRecognition:
    def test_examples(self):
        assert wahl_singularity([4, 5, 3, 2, 2]).n == 11
        assert wahl_singularity([4, 5, 3, 2, 2]).a == 3
        sing = wahl_singularity([2, 2, 3, 5, 4])
        assert (sing.n, sing.a) == (11, 8)
        assert wahl_singularity([2, 2]) is None
        assert not is_wahl([2, 5, 2])

    def test_reversal_same_index(self):
        for chain in wahl_generate(6):
            sing = wahl_singularity(chain)
            rev = wahl_singularity(chain[::-1])
            assert rev.n == sing.n
            assert rev.a == sing.n - sing.a

    def test_quotient_round_trip(self):
        sing = wahl_singularity([3, 5, 3, 2])
        assert (sing.n, sing.a) == (8, 3)
        assert sing.quotient().chain() == (3, 5, 3, 2)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_recognizer_agrees_on_wahl_chains(self, length):
        for chain in wahl_generate(length):
            assert recognize_wahl(chain) == wahl_singularity(chain) is not None

    @given(chains)
    def test_recognizer_agrees_on_any_chain(self, chain):
        assert recognize_wahl(chain) == wahl_singularity(chain)

    @pytest.mark.parametrize("string", [(), (1, 5, 3, 2), (3, 4)],
                             ids=["empty", "entry-1", "sum-3l+1"])
    def test_recognizer_decides_what_is_no_chain(self, string):
        # wahl_singularity rejects the first two; (3, 4) sums to 3l + 1
        assert recognize_wahl(string) is None


class TestWahlGenerate:
    def test_small_lengths(self):
        assert wahl_generate(1) == {(4,)}
        assert wahl_generate(2) == {(5, 2), (2, 5)}
        assert wahl_generate(3) == {(6, 2, 2), (2, 5, 3), (3, 5, 2), (2, 2, 6)}

    @pytest.mark.parametrize("length", range(1, 13))
    def test_cardinality_sum_and_fibonacci(self, length):
        generated = wahl_generate(length)
        assert len(generated) == 2 ** (length - 1)
        maximal = []
        for chain in generated:
            assert sum(chain) == 3 * length + 1
            sing = wahl_singularity(chain)
            assert sing is not None
            assert sing.n <= fibonacci(length)
            if sing.n == fibonacci(length):
                maximal.append(chain)
        if length == 1:
            assert maximal == [(4,)]
            return
        # equality exactly on [3,..,3,5,3,..,3,2] and its reversal
        assert len(maximal) == 2
        first, second = sorted(maximal)
        assert first == tuple(reversed(second))
        assert sorted((first.count(2), first.count(3), first.count(5)) for
                      first in maximal) == [(1, length - 2, 1)] * 2

    def test_cap(self):
        with pytest.raises(ChainError):
            wahl_generate(26)
        assert len(wahl_generate(3, cap=3)) == 4


class TestDiscrepancies:
    def test_examples(self):
        assert discrepancies([4]) == (Fraction(-1, 2),)
        assert discrepancies([5, 2]) == (Fraction(-2, 3), Fraction(-1, 3))
        assert discrepancies([2]) == (Fraction(0),)

    @given(chains)
    def test_system_residual_zero_and_range(self, chain):
        ds = discrepancies(chain)
        padded = (Fraction(0),) + ds + (Fraction(0),)
        for i, b in enumerate(chain, start=1):
            assert -b * padded[i] + padded[i - 1] + padded[i + 1] == b - 2
            assert -1 < padded[i] <= 0

    def test_matches_the_solved_system(self):
        # every chain of the catalog and its mains, then seeded random ones
        catalog = [spec.chain for record in load_records() for spec in record.chains]
        catalog += [tuple(c["chain"]) for main in load_expected()["mains"].values()
                    for c in main["chains"]]
        rng = random.Random(16)
        randoms = [tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 14)))
                   for _ in range(3000)]
        assert len(catalog) > 60
        for chain in catalog + randoms:
            assert discrepancies(chain) == solved_discrepancies(chain), chain

    def test_wahl_chains_strictly_negative(self):
        for length in range(1, 9):
            for chain in wahl_generate(length):
                assert all(-1 < d < 0 for d in discrepancies(chain))


class TestBlowDown:
    def test_contract_examples(self):
        assert contract_ones([4, 1, 4]) == (3, 3)
        assert contract_ones([3, 1, 3]) == (2, 2)
        assert contract_ones([4, 1]) == (3,)  # end contraction
        with pytest.raises(ChainError):
            contract_ones([1])
        with pytest.raises(ChainError):
            contract_ones([2, 1, 2])
        with pytest.raises(ChainError):
            contract_ones([3, 1, 2])  # contracts away entirely
        with pytest.raises(ChainError):
            contract_ones([])

    def test_compose_examples(self):
        cq = blow_down_compose([4], [4])
        assert (cq.m, cq.q) == (8, 3)
        cq = blow_down_compose([3, 3, 2, 6, 3, 2], [3, 3, 2, 6, 3, 2])
        assert (cq.m, cq.q) == (648, 251)

    def test_self_compose_is_t_with_d2(self):
        for length in range(1, 7):
            for chain in wahl_generate(length):
                sing = wahl_singularity(chain)
                cq = blow_down_compose(chain, chain)
                assert cq.m == 2 * sing.n ** 2
                twist = 2 * sing.n * sing.a - 1
                assert cq.q in (twist % cq.m, pow(twist, -1, cq.m))
                t = t_singularity(cq.m, cq.q)
                assert t is not None and t.d == 2 and t.n == sing.n


class TestMeridians:
    def test_examples(self):
        assert meridian_exponents([4]) == (1,)
        assert meridian_order([4]) == 4
        assert meridian_exponents([5, 2]) == (2, 1)
        assert meridian_order([5, 2]) == 9
        assert meridian_exponents([2, 5]) == (5, 1)
        assert meridian_order([2, 5]) == 9

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=8).map(tuple))
    def test_extrapolation_is_order(self, chain):
        assert meridian_order(chain) == hj_eval(chain)[0]

    def test_group_presentation_oracle(self):
        # independent check: left continuants p_i (p_0=0, p_1=1) embed the
        # presentation into Z/m; the meridian exponents must satisfy
        # p_i = t_i * p_l mod m and the relation matrix must present Z/m
        import sympy
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(7)
        cases = [c for k in range(1, 6) for c in wahl_generate(k)]
        cases += [tuple(rng.randint(2, 7) for _ in range(rng.randint(1, 5)))
                  for _ in range(60)]
        for chain in cases:
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
                if i > 0:
                    rel[i, i - 1] = 1
                if i < l - 1:
                    rel[i, i + 1] = 1
            snf = smith_normal_form(rel)
            divisors = [abs(snf[i, i]) for i in range(l)]
            assert divisors[:-1] == [1] * (l - 1)
            assert divisors[-1] == m


class TestBoundsAndTypes:
    def test_length_bounds(self):
        assert length_bound("K3", 1) == 5
        assert length_bound("properly-elliptic", 1) == 3
        assert length_bound("general-type", 3, 2) == 2
        assert length_bound("general-type", 5, 2) == 9
        with pytest.raises(ChainError):
            length_bound("K3", 0)
        with pytest.raises(ChainError):
            length_bound("general-type", 3)
        with pytest.raises(ChainError):
            length_bound("plane", 1)

    def test_cyclic_quotient_normalization(self):
        cq = CyclicQuotient(64, 39)
        norm = cq.normalize()
        assert (norm.m, norm.q) == (64, 23)
        assert norm.normalize() == norm
        assert cq.same_germ(norm)
        assert CyclicQuotient(8, 3) == CyclicQuotient(8, 3).normalize()
        assert hash(CyclicQuotient(8, 3)) == hash(CyclicQuotient(8, 3).normalize())
        with pytest.raises(ChainError):
            CyclicQuotient(9, 3)

    def test_t_singularity(self):
        t = t_singularity(8, 3)
        assert (t.d, t.n, t.a) == (2, 2, 1)
        assert t_singularity(648, 251).n == 18
        assert t_singularity(7, 3) is None
        assert t_singularity(4, 1).n == 2  # the Wahl chain [4] itself

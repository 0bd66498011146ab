"""Exact Hirzebruch-Jung / Wahl chain calculus.

Everything here is plain integer and rational arithmetic on short chains
[b_1, ..., b_l].  A chain encodes the dual graph of the minimal resolution
of a cyclic quotient singularity 1/m(1,q): the curve E_i has E_i^2 = -b_i
and m/q = b_1 - 1/(b_2 - 1/(... - 1/b_l)).

No floating point is used anywhere; indices up to five digits squared must
stay bit-exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence

__all__ = [
    "ChainError",
    "CyclicQuotient",
    "WahlSingularity",
    "TSingularity",
    "hj_expand",
    "hj_eval",
    "wahl_singularity",
    "recognize_wahl",
    "is_wahl",
    "wahl_generate",
    "discrepancies",
    "contract_ones",
    "blow_down_compose",
    "meridian_exponents",
    "meridian_order",
    "length_bound",
    "t_singularity",
    "fibonacci",
    "WAHL_GENERATE_CAP",
]

# Enumeration cap for wahl_generate: 2**24 chains at length 25.
WAHL_GENERATE_CAP = 25


class ChainError(ValueError):
    """Raised for malformed chains or out-of-range (m, q) input."""


def _as_chain(entries: Iterable[int]) -> tuple[int, ...]:
    chain = tuple(int(b) for b in entries)
    if not chain:
        raise ChainError("empty chain")
    bad = [b for b in chain if b < 2]
    if bad:
        raise ChainError(f"chain entries must be >= 2, got {bad[0]}")
    return chain


@dataclass(frozen=True)
class CyclicQuotient:
    """The cyclic quotient singularity 1/m(1,q), 0 < q < m, gcd(m,q) = 1.

    (m, q) and (m, q') with q*q' = 1 mod m denote the same germ; normalize()
    replaces q by min(q, q^-1 mod m) so comparisons are orientation-free.
    """

    m: int
    q: int

    def __post_init__(self) -> None:
        if self.m < 2 or not 0 < self.q < self.m:
            raise ChainError(f"need 0 < q < m with m >= 2, got (m,q)=({self.m},{self.q})")
        if gcd(self.m, self.q) != 1:
            raise ChainError(f"(m,q)=({self.m},{self.q}) not coprime")

    @property
    def q_inverse(self) -> int:
        return pow(self.q, -1, self.m)

    def normalize(self) -> "CyclicQuotient":
        return CyclicQuotient(self.m, min(self.q, self.q_inverse))

    def same_germ(self, other: "CyclicQuotient") -> bool:
        return self.m == other.m and other.q in (self.q, self.q_inverse)

    def chain(self) -> tuple[int, ...]:
        return hj_expand(self.m, self.q)

    def __str__(self) -> str:
        return f"1/{self.m}(1,{self.q})"


@dataclass(frozen=True)
class WahlSingularity:
    """A Wahl singularity 1/n^2(1,na-1) together with its resolution chain."""

    n: int
    a: int
    chain: tuple[int, ...]

    def quotient(self) -> CyclicQuotient:
        return CyclicQuotient(self.n * self.n, self.n * self.a - 1)

    def __str__(self) -> str:
        return f"1/{self.n * self.n}(1,{self.n}*{self.a}-1)"


@dataclass(frozen=True)
class TSingularity:
    """A non-RDP T-singularity 1/(d n^2)(1, d n a - 1); d is the dimension
    of its QG deformation space."""

    d: int
    n: int
    a: int

    @property
    def order(self) -> int:
        return self.d * self.n * self.n

    @property
    def twist(self) -> int:
        return self.d * self.n * self.a - 1

    def quotient(self) -> CyclicQuotient:
        return CyclicQuotient(self.order, self.twist)

    def __str__(self) -> str:
        return f"1/{self.order}(1,{self.twist}) [T: d={self.d},n={self.n},a={self.a}]"


def hj_expand(m: int, q: int) -> tuple[int, ...]:
    """Hirzebruch-Jung expansion of m/q into [b_1, ..., b_l], all b_i >= 2.

    A run of 2s is emitted in one step: each 2 maps (m, q) to
    (m - d, q - d) with d = m - q fixed, so (m, m - 1) costs O(1) steps
    rather than m - 1.

    >>> hj_expand(729, 215)
    (4, 2, 3, 5, 4, 2, 2)
    """
    m, q = int(m), int(q)
    if m < 2 or not 0 < q < m:
        raise ChainError(f"need 0 < q < m with m >= 2, got (m,q)=({m},{q})")
    if gcd(m, q) != 1:
        raise ChainError(f"(m,q)=({m},{q}) not coprime")
    entries = []
    while q > 0:
        d = m - q
        k = (q - 1) // d  # the 2s before the next entry, which is computed below
        entries.extend([2] * k)
        m, q = m - k * d, q - k * d
        b = -(-m // q)  # ceil(m/q)
        entries.append(b)
        m, q = q, b * q - m
    assert m == 1
    return tuple(entries)


def hj_eval(chain: Sequence[int]) -> tuple[int, int]:
    """Evaluate [b_1, ..., b_l] bottom-up to the reduced fraction (m, q).

    Inverse of hj_expand; rejects an empty chain and entries < 2.  Runs of
    equal entries are validated once, and a run of k 2s is evaluated in
    one step: it maps (m, q) to (m + k*d, m + (k-1)*d) with d = m - q.
    """
    runs = [(int(b), len(tuple(group))) for b, group in groupby(chain)]
    if not runs:
        raise ChainError("empty chain")
    bad = next((b for b, _ in runs if b < 2), None)
    if bad is not None:
        raise ChainError(f"chain entries must be >= 2, got {bad}")
    m, q = 1, 0  # the empty tail, so that the last entry b gives (b, 1)
    for b, k in reversed(runs):
        if b == 2:
            d = m - q
            m, q = m + k * d, m + (k - 1) * d
        else:
            for _ in range(k):
                m, q = b * m - q, m
    return m, q


def _reduces_to_four(chain: tuple[int, ...]) -> bool:
    """Inverse-rule test: peel end extensions until [4] or stuck.

    A Wahl chain of length >= 2 never both starts and ends with 2, so at
    most one inverse rule applies at a time and the reduction is greedy.
    """
    work = list(chain)
    while len(work) > 1:
        if work[-1] == 2 and work[0] >= 3:
            work.pop()
            work[0] -= 1
        elif work[0] == 2 and work[-1] >= 3:
            work.pop(0)
            work[-1] -= 1
        else:
            return False
    return work == [4]


def wahl_singularity(chain: Sequence[int]) -> Optional[WahlSingularity]:
    """Recognize a Wahl chain; return its (n, a) data or None.

    The arithmetic test (m = n^2, q = na - 1) and the rule-inversion test
    must agree; a chain and its reversal carry the same index n with
    a <-> n - a.
    """
    entries = _as_chain(chain)
    m, q = hj_eval(entries)
    n = isqrt(m)
    by_rules = _reduces_to_four(entries)
    if n * n != m or (q + 1) % n != 0:
        assert not by_rules, f"rule test disagrees with arithmetic on {entries}"
        return None
    a = (q + 1) // n
    if not (0 < a < n and gcd(a, n) == 1):
        assert not by_rules, f"rule test disagrees with arithmetic on {entries}"
        return None
    assert by_rules, f"arithmetic says Wahl but rules disagree on {entries}"
    return WahlSingularity(n, a, entries)


@cache
def recognize_wahl(string: tuple[int, ...]) -> Optional[WahlSingularity]:
    """The Wahl singularity of any string of integers, or None; memoised.

    Unlike `wahl_singularity`, which rejects what is no chain, this decides
    every string: one that is empty, has an entry below 2 or does not sum to
    3l + 1 (every Wahl chain does: [4] does, and each end extension adds 3
    and one entry) is None without being evaluated.
    """
    if not string or min(string) < 2 or sum(string) != 3 * len(string) + 1:
        return None
    return wahl_singularity(string)


def is_wahl(chain: Sequence[int]) -> bool:
    return wahl_singularity(chain) is not None


def wahl_generate(length: int, cap: int = WAHL_GENERATE_CAP) -> set[tuple[int, ...]]:
    """All 2^(l-1) Wahl chains of the given length.

    Starts from [4] and iterates the two end extensions
    [b_1,...,b_l] -> [b_1+1,...,b_l,2] and [2,b_1,...,b_l+1].
    """
    if length < 1:
        raise ChainError("length must be >= 1")
    if length > cap:
        raise ChainError(f"length {length} above enumeration cap {cap}")
    chains: set[tuple[int, ...]] = {(4,)}
    for _ in range(length - 1):
        chains = {c for chain in chains for c in (
            (chain[0] + 1,) + chain[1:] + (2,),
            (2,) + chain[:-1] + (chain[-1] + 1,),
        )}
    return chains


def discrepancies(chain: Sequence[int]) -> tuple[Fraction, ...]:
    """Discrepancies d_1..d_l of the resolution chain, solved exactly.

    They are the unique solution of the tridiagonal system
    -b_i d_i + d_{i-1} + d_{i+1} = b_i - 2 with d_0 = d_{l+1} = 0,
    and always lie in (-1, 0].  In closed form d_i = -1 + (s_i + t_i)/m,
    where m is the order, t the meridian exponents and s those of the
    reversed chain, read back in chain order.
    """
    entries = _as_chain(chain)
    m = hj_eval(entries)[0]
    t = meridian_exponents(entries)
    s = meridian_exponents(entries[::-1])[::-1]
    w = [0] + [si + ti - m for si, ti in zip(s, t)] + [0]  # w_i = m d_i
    for i, b in enumerate(entries, 1):
        assert -b * w[i] + w[i - 1] + w[i + 1] == m * (b - 2)
        assert -m < w[i] <= 0, f"discrepancy {Fraction(w[i], m)} outside (-1,0]"
    return tuple(Fraction(wi, m) for wi in w[1:-1])


def contract_ones(entries: Sequence[int]) -> tuple[int, ...]:
    """Contract every (-1)-curve in a transient chain until all entries >= 2.

    An interior 1 is removed and both neighbors decrement; an end 1 is
    dropped and its single neighbor decrements.  Entries equal to 0 and
    over-contraction to the empty chain are errors.
    """
    work = [int(b) for b in entries]
    if not work:
        raise ChainError("empty chain")
    while True:
        if any(b <= 0 for b in work):
            raise ChainError(f"contraction produced a nonpositive entry in {work}")
        try:
            i = work.index(1)
        except ValueError:
            return tuple(work)
        if len(work) == 1:
            raise ChainError("contraction emptied the chain")
        if i > 0:
            work[i - 1] -= 1
        if i < len(work) - 1:
            work[i + 1] -= 1
        del work[i]


def blow_down_compose(left: Sequence[int], right: Sequence[int]) -> CyclicQuotient:
    """Join two chains by a (-1)-curve, contract, and evaluate.

    Forms [left, 1, right], contracts all 1s, and returns the resulting
    cyclic quotient normalized.  For a Wahl chain c of type (n, a),
    blow_down_compose(c, c) is the T-singularity of order 2n^2.
    """
    l = _as_chain(left)
    r = _as_chain(right)
    m, q = hj_eval(contract_ones(l + (1,) + r))
    return CyclicQuotient(m, q).normalize()


def meridian_exponents(chain: Sequence[int]) -> tuple[int, ...]:
    """Exponent t_i of each curve's meridian as a power of the generator.

    The generator is the meridian of the last curve: t_l = 1, t_{l+1} = 0
    and t_{i-1} = b_i t_i - t_{i+1}.  The extrapolated t_0 = b_1 t_1 - t_2
    equals the order m of the singularity.
    """
    entries = _as_chain(chain)
    l = len(entries)
    t = [0] * (l + 2)  # t[1..l] real, t[l+1] = 0 sentinel
    t[l] = 1
    for i in range(l, 1, -1):
        t[i - 1] = entries[i - 1] * t[i] - t[i + 1]
    return tuple(t[1:l + 1])


def meridian_order(chain: Sequence[int]) -> int:
    """The extrapolated t_0 of meridian_exponents; always equals hj_eval(chain)[0]."""
    entries = _as_chain(chain)
    t = meridian_exponents(entries)
    t2 = t[1] if len(t) > 1 else 0
    return entries[0] * t[0] - t2


def length_bound(ambient: str, k2: int, k2_min: Optional[int] = None) -> int:
    """Upper bound for the length of one Wahl chain on a W-surface.

    K3 minimal model: 4*k2 + 1; properly elliptic: 4*k2 - 1; general type
    with minimal model of self-intersection k2_min: 4*(k2 - k2_min) - 3
    when the drop exceeds 1, else 2.
    """
    if k2 <= 0:
        raise ChainError(f"k2 must be positive, got {k2}")
    if ambient == "K3":
        return 4 * k2 + 1
    if ambient == "properly-elliptic":
        return 4 * k2 - 1
    if ambient == "general-type":
        if k2_min is None:
            raise ChainError("general-type bound needs k2_min")
        drop = k2 - k2_min
        if drop < 1:
            raise ChainError("general type requires k2_min < k2")
        return 4 * drop - 3 if drop > 1 else 2
    raise ChainError(f"unknown ambient {ambient!r}")


def t_singularity(m: int, q: int) -> Optional[TSingularity]:
    """Recognize 1/m(1,q) as a non-RDP T-singularity 1/(d n^2)(1, d n a - 1).

    Both orientations of q are tried; the parameters of the matching one
    are returned (a and n - a describe the two orientations).
    """
    cq = CyclicQuotient(m, q)
    for twist in (cq.q, cq.q_inverse):
        n = 2
        while n * n <= m:
            if m % (n * n) == 0:
                d = m // (n * n)
                if (twist + 1) % (d * n) == 0:
                    a = (twist + 1) // (d * n)
                    if 0 < a < n and gcd(a, n) == 1:
                        return TSingularity(d, n, a)
            n += 1
    return None


def fibonacci(i: int) -> int:
    """Fibonacci numbers with F_{-1} = F_0 = 1."""
    if i < -1:
        raise ValueError("index must be >= -1")
    prev, cur = 1, 1
    for _ in range(i):
        prev, cur = cur, prev + cur
    return cur

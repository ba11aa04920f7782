"""GF(2^n) arithmetic on int bit masks, with table-driven numpy kernels.

Elements are ints whose bit j is the coefficient of x^j in the polynomial
basis. A FieldContext holds the exp/log tables for one modulus; the derived
tables (power maps, relative traces, the zero-safe log/exp pair behind the
elementwise products `_mul` and `_times`, and the logs of each x^e table
that `_times` reads) and the proofs the sweeps lean on are made on demand
and kept read-only on the context by `_cached`, the one reader and writer
of its cache. Every row a sweep reads, f(a P_e[x]) over x, is built
from those tables by `expsum._rows`, and is not cached. The orbit lemma,
`_orbit_lemma`, proves in O(q) per field and per exponent that x -> c x
carries each such row onto the row of a c^e, for every c != 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import gcd

import numpy as np

from .distribution import VerificationError

__all__ = [
    "FieldElement", "FieldContext", "Params", "build_field", "derive_params",
    "subfield_elements",
    "find_primitive_polynomial", "is_irreducible", "is_primitive",
    "power_table", "rel_trace_table",
]

FieldElement = int


def _factorize(x):
    """Prime factors (with multiplicity dropped) by trial division."""
    out = []
    p = 2
    while p * p <= x:
        if x % p == 0:
            out.append(p)
            while x % p == 0:
                x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        out.append(x)
    return out


def _gf2_polymul(a, b):
    """Carry-less product in GF(2)[x]."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _gf2_polymod(a, m):
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _gf2_mulmod(a, b, m):
    return _gf2_polymod(_gf2_polymul(a, b), m)


def _gf2_powmod(a, e, m):
    r = 1
    a = _gf2_polymod(a, m)
    while e:
        if e & 1:
            r = _gf2_mulmod(r, a, m)
        a = _gf2_mulmod(a, a, m)
        e >>= 1
    return r


def _gf2_gcd(a, b):
    while b:
        a, b = b, _gf2_polymod(a, b)
    return a


def is_irreducible(mask, n):
    """mask encodes a degree-n polynomial irreducible over GF(2)."""
    if mask < 0 or mask.bit_length() - 1 != n or not mask & 1:
        return False
    if _gf2_powmod(2, 1 << n, mask) != 2:
        return False
    for p in _factorize(n):
        h = _gf2_powmod(2, 1 << (n // p), mask)
        if _gf2_gcd(h ^ 2, mask) != 1:
            return False
    return True


def is_primitive(mask, n):
    """Irreducible and the residue class of x generates the unit group."""
    if not is_irreducible(mask, n):
        return False
    order = (1 << n) - 1
    for p in _factorize(order):
        if _gf2_powmod(2, order // p, mask) == 1:
            return False
    return True


def find_primitive_polynomial(n):
    """Smallest (n+1)-bit mask that is primitive of degree n."""
    for mask in range((1 << n) | 1, 1 << (n + 1), 2):
        if is_primitive(mask, n):
            return mask
    raise ValueError(f"no primitive polynomial of degree {n}")


@dataclass(frozen=True)
class Params:
    """Derived arithmetic facts for one (n, k) parameter pair."""

    n: int
    m: int
    k: int
    d: int
    d_prime: int
    q0: int
    s: int
    case: str

    @property
    def q(self):
        return 1 << self.n

    @property
    def e_norm(self):
        """Exponent of the norm-type term, 2^m + 1."""
        return (1 << self.m) + 1

    @property
    def e_quad(self):
        """Exponent of the quadratic-form term, 2^k + 1."""
        return (1 << self.k) + 1


def derive_params(n, k):
    """Validate (n, k) and classify the parity case."""
    if n % 2 or not 4 <= n <= 24:
        raise ValueError(f"n must be even with 4 <= n <= 24, got {n}")
    m = n // 2
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    if k == m:
        raise ValueError(f"k = n/2 = {m} is excluded")
    d = gcd(m, k)
    d_prime = gcd(m + k, 2 * k)
    if (m // d) % 2 == 0:
        case = "EvenM"
    elif (k // d) % 2 == 0:
        case = "EvenK"
    else:
        case = "BothOdd"
    # exactly one case holds; BothOdd is equivalent to d_prime == 2d
    if d_prime != (2 * d if case == "BothOdd" else d):
        raise VerificationError(f"d'={d_prime} does not fit case {case} "
                                f"with d={d}")
    return Params(n=n, m=m, k=k, d=d, d_prime=d_prime, q0=1 << d, s=n // d, case=case)


@dataclass(frozen=True, eq=False)
class FieldContext:
    """Exp and log tables for one GF(2^n) instance, and its cache."""

    n: int
    modulus: int
    pi: FieldElement
    exp_table: np.ndarray
    log_table: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def q(self):
        return 1 << self.n

    @property
    def order(self):
        return (1 << self.n) - 1

    def mul(self, a, b):
        return int(_mul(self, a, b))

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 1 if e == 0 else 0
        return int(self.exp_table[(int(self.log_table[a]) * e) % self.order])


def build_field(n, modulus=None):
    """Construct GF(2^n) tables; modulus defaults to the smallest primitive mask."""
    if not 2 <= n <= 24:
        raise ValueError(f"n must satisfy 2 <= n <= 24, got {n}")
    if modulus is None:
        modulus = find_primitive_polynomial(n)
    elif modulus < 0:
        raise ValueError(f"modulus {modulus:#x} is negative")
    elif modulus.bit_length() - 1 != n:
        raise ValueError(f"modulus {modulus:#x} has degree "
                         f"{modulus.bit_length() - 1}, not {n}")
    elif not is_irreducible(modulus, n):
        raise ValueError(f"modulus {modulus:#x} is reducible over GF(2)")
    elif not is_primitive(modulus, n):
        raise ValueError(f"modulus {modulus:#x} is irreducible but not primitive")
    q = 1 << n
    exp = np.zeros(q - 1, dtype=np.int64)
    log = np.full(q, -1, dtype=np.int64)
    x = 1
    for i in range(q - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if (x >> n) & 1:
            x ^= modulus
    if x != 1:
        raise VerificationError("exp table walk did not return to 1")
    return FieldContext(n=n, modulus=modulus, pi=2, exp_table=exp,
                        log_table=log)


def subfield_elements(ctx, m):
    """GF(2^m) inside GF(2^n): 0 first, then consecutive powers of pi^step."""
    if ctx.n % m:
        raise ValueError(f"GF(2^{m}) is not a subfield of GF(2^{ctx.n})")
    step = ctx.order // ((1 << m) - 1)
    return [0] + [int(ctx.exp_table[(step * j) % ctx.order])
                  for j in range((1 << m) - 1)]


def _cached(ctx, key, build):
    """build(), made once per context and kept under key, each array of it
    made read-only; a build that raises keeps nothing, so each later reader
    makes it again."""
    if key not in ctx._cache:
        kept = build()
        for array in kept if isinstance(kept, tuple) else (kept,):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        ctx._cache[key] = kept
    return ctx._cache[key]


def _log_exp(ctx):
    """The zero-safe (log, exp) pair of the elementwise product: 0's cached
    log, 2*order, passes any sum of two true logs into the zeros after the
    exp cycle, kept twice, so a product is one gather."""
    def tables():
        log = ctx.log_table.copy()
        log[0] = 2 * ctx.order
        return log, np.concatenate([ctx.exp_table, ctx.exp_table,
                                    np.zeros(2 * ctx.order + 1, np.int64)])

    return _cached(ctx, "mul", tables)


def _times(ctx, e):
    """a -> a x^e over every x in mask order, elementwise and
    numpy-broadcast, the logs of the x^e table gathered once per e mod L."""
    log, exp = _log_exp(ctx)
    log_pe = _cached(ctx, ("log pow", e % ctx.order),
                     lambda: log[power_table(ctx, e)])
    return lambda a: exp[log[a] + log_pe]


def _mul(ctx, a, b):
    """Elementwise a*b of integer arrays or scalars, by `_log_exp`."""
    log, exp = _log_exp(ctx)
    return exp[log[a] + log[b]]


def power_table(ctx, e):
    """Vector of x^e over all field elements x; out[0] = 0 (e >= 1 intended)."""
    e %= ctx.order
    return _cached(ctx, ("pow", e), lambda: np.append(
        0, ctx.exp_table[ctx.log_table[1:] * e % ctx.order]))


_TIMES_PI = "x -> pi x"


def _orbit_lemma(ctx, *exponents):
    """The x -> pi x orbit lemma, or `VerificationError` naming x -> pi x:
    the log and exp tables are inverse bijections between Z/L and GF(q)*;
    x -> pi x, the product by pi, is GF(2)-linear and steps the exp table
    from exp[0] = 1; and the power table P_e of each listed exponent obeys
    P_e[pi x] = pi^e P_e[x]. Each part is O(q) and made once per field by
    `_cached`, the power-table laws once per e mod L, so they serve every k.

    A product of the log tables adds logs mod L, so x -> c x is then x ->
    pi x taken log c times, a linear permutation, for every c != 0, and
    P_e[c x] = c^e P_e[x]. Read at c x, a row f(a P_e[x]) over x, whatever
    f, is the row of a c^e: a sweep that builds each row it reads from that
    definition may let one coefficient stand for its orbit.
    """
    def times_pi():
        log, exp, q = ctx.log_table, ctx.exp_table, ctx.q
        if not (np.array_equal(np.sort(exp), np.arange(1, q))
                and np.array_equal(log[exp], np.arange(ctx.order))):
            raise VerificationError(
                f"{_TIMES_PI} has no log: the log and exp tables are not "
                f"inverse bijections")
        step = _mul(ctx, np.arange(q), ctx.pi)
        if not _gf2_linear(step):
            raise VerificationError(
                f"{_TIMES_PI} does not permute the field linearly")
        if exp[0] != 1 or not np.array_equal(step[exp], np.roll(exp, -1)):
            raise VerificationError(
                f"{_TIMES_PI} does not step the exp table from 1")
        return step

    step = _cached(ctx, "orbit lemma", times_pi)
    for e in exponents:
        e %= ctx.order
        _cached(ctx, ("orbit lemma", e), partial(_power_law, ctx, step, e))


def _power_law(ctx, step, e):
    """P_e[pi x] = pi^e P_e[x] over every x, the step being x -> pi x."""
    table = power_table(ctx, e)
    if not np.array_equal(table[step], _mul(ctx, ctx.exp_table[e], table)):
        raise VerificationError(
            f"the x^{e} table breaks {_TIMES_PI}: P[pi x] is not pi^{e} P[x]")


def _cycles(perm, n):
    """Cycle of each index, and least index and size of each cycle, of perm,
    numbered by least index; n steps of perm must restore every index."""
    start = np.arange(len(perm), dtype=np.int64)
    image, least = start, start
    for _ in range(n):
        image = perm[image]
        least = np.minimum(least, image)
    if (image != start).any():
        raise VerificationError(
            f"{n} steps of the map do not return every index to itself")
    sizes = np.bincount(least, minlength=len(perm))
    reps = np.flatnonzero(sizes)
    return np.searchsorted(reps, least), reps, sizes[reps]


def _gf2_linear(table):
    """Whether each row of table, a map of GF(2^n) in mask order along the
    last axis, is GF(2)-linear: row[0] = 0 and row[x + 2^i] = row[x] +
    row[2^i] for every x < 2^i, so row[x] sums row[2^i] over x's bits."""
    linear = table[..., 0] == 0
    for i in range(table.shape[-1].bit_length() - 1):
        low, high = table[..., :1 << i], table[..., 1 << i:2 << i]
        linear &= (high == low ^ high[..., :1]).all(axis=-1)
    return linear


def rel_trace_table(ctx, i, j):
    """Vector of sum_{t < j//i} x^(2^(i t)); equals Tr over GF(2^j) entries."""
    if j % i or ctx.n % j:
        raise ValueError(f"need i | j | n, got i={i}, j={j}, n={ctx.n}")

    def table():
        frob = power_table(ctx, 1 << i)
        acc = np.zeros(ctx.q, dtype=np.int64)
        y = np.arange(ctx.q, dtype=np.int64)
        for _ in range(j // i):
            acc ^= y
            y = frob[y]
        return acc

    return _cached(ctx, ("rtr", i, j), table)

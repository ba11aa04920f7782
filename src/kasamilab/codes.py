"""Binary cyclic codes from trace forms and their weight distributions.

Codewords of length 2^n - 1 are generated coordinatewise from the same trace
expressions the exponential sums integrate, so every weight is tied to a sum
value by w = 2^(n-1) - value/2. The narrow code (dimension 3m over GF(2)) is
cut out by the parity-check product h2*h3; the wide code (dimension 5m) by
h1*h2*h3, where the h_i are minimal polynomials of pi^-1, pi^-(2^k+1) and
pi^-(2^m+1), each a GF(2) mask with bit i at x^i. A word is 0 at x = 0, so the weight distributions are T (c1)
and S (c2) relabelled, measured or closed form: the popcount sweep runs once
per histogram, in expsum, and the direct Hamming counts of the words are the
tests' oracles. Cyclicity is the sweeps' x -> pi x orbit proof on the same
three row tables, rather than a check of the words they XOR to. Cyclicity
and the parity check return nothing and raise `VerificationError` on a
disagreement.
"""

from __future__ import annotations

import numpy as np

from .distribution import VerificationError, _pack_bits, pack_bits_hex
from .expsum import (_gamma_axis, _orbit_closure, _trace_rows,
                     s_spectrum_formula, t_spectrum_formula)
from .field import _gf2_polymul, _gf2_polymod, subfield_elements

__all__ = [
    "minimal_poly", "h_polynomials", "parity_check_mask", "code_dimension",
    "codeword_c1", "codeword_c2", "weight_distribution",
    "weight_distribution_formula", "check_cyclicity", "codeword_dump_lines",
    "CYCLICITY_EXHAUSTIVE_MAX_N",
]

CODES = ("c1", "c2")


def minimal_poly(ctx, e):
    """Minimal polynomial of pi^e over GF(2), the product of x + pi^c over
    the 2-cyclotomic coset of e, as a mask: bit i is the coefficient of x^i,
    so its degree is `mask.bit_length() - 1`, the coset's size."""
    order = ctx.order
    coset = [e % order]
    while (c := 2 * coset[-1] % order) != coset[0]:
        coset.append(c)
    poly = [1]
    for c in coset:
        root = ctx.pow(ctx.pi, c)
        new = [0] * (len(poly) + 1)
        for i, co in enumerate(poly):
            new[i + 1] ^= co
            new[i] ^= ctx.mul(co, root)
        poly = new
    if any(co not in (0, 1) for co in poly):
        raise VerificationError("coset product has coefficients outside GF(2)")
    return sum(co << i for i, co in enumerate(poly))


def h_polynomials(ctx, params):
    """(h1, h2, h3): the masks of the minimal polynomials of pi^-1,
    pi^-(2^k+1) and pi^-(2^m+1)."""
    return tuple(minimal_poly(ctx, -e)
                 for e in (1, params.e_quad, params.e_norm))


def parity_check_mask(ctx, params, code):
    """Parity-check polynomial: h2*h3 for c1, h1*h2*h3 for c2."""
    h1, h2, h3 = h_polynomials(ctx, params)
    mask = _gf2_polymul(h2, h3)
    if code == "c2":
        mask = _gf2_polymul(mask, h1)
    elif code != "c1":
        raise ValueError(f"code must be one of {CODES}, got {code!r}")
    return mask


def code_dimension(params, code):
    if code not in CODES:
        raise ValueError(f"code must be one of {CODES}, got {code!r}")
    return (3 if code == "c1" else 5) * params.m


# Above this n, check_cyclicity checks a fixed sample of parameter tuples.
CYCLICITY_EXHAUSTIVE_MAX_N = 6


def _word_rows(ctx, params, alphas, betas, gammas):
    """The trace rows of expsum at x = pi^lam, lam in [0, 2^n - 1): uint8 rows
    of Tr_m(a pi^(lam e1)), Tr_n(b pi^(lam e2)) and Tr_n(g pi^lam), one row
    per coefficient, in C order; a codeword XORs one of each."""
    return tuple(np.take(rows, ctx.exp_table, axis=1)
                 for rows in _trace_rows(ctx, params, alphas, betas, gammas))


def _words(rows):
    """Every XOR of an alpha, a beta and a gamma row, in (alpha, beta, gamma)
    order."""
    arows, brows, grows = rows
    words = (arows[:, None, None, :] ^ brows[None, :, None, :]
             ^ grows[None, None, :, :])
    return words.reshape(-1, arows.shape[1])


def codeword_c1(ctx, params, alpha, beta):
    """uint8 coordinates Tr_m(alpha pi^(lam e1)) + Tr_n(beta pi^(lam e2))."""
    arows, brows, _ = _word_rows(ctx, params, [alpha], [beta], [])
    return arows[0] ^ brows[0]


def codeword_c2(ctx, params, alpha, beta, gamma):
    """codeword_c1 plus the linear coordinate Tr_n(gamma pi^lam)."""
    base = codeword_c1(ctx, params, alpha, beta)
    _, _, grows = _word_rows(ctx, params, [], [], [gamma])
    return base ^ grows[0]


def weight_distribution(sums, params, code):
    """The weight distribution of a code, relabelled from the distribution
    of its sum (T for c1, S for c2, measured or closed form): every word is
    0 at x = 0 and XORs the trace rows the sum integrates, so its weight is
    w = 2^(n-1) - value/2. Each value must be even and the sums must cover
    every word."""
    words = 1 << code_dimension(params, code)
    if sums.total != words:
        raise VerificationError(
            f"{code} weights cover {sums.total} words, expected {words}")
    half = 1 << (params.n - 1)
    for v, _ in sums.entries:
        if v % 2:
            raise VerificationError(f"sum value {v} is odd; cannot be a weight")
    return sums.map_values(lambda v: half - v // 2)


def weight_distribution_formula(params, code):
    """Closed-form weight table: the closed-form T or S table relabelled."""
    sums = t_spectrum_formula if code == "c1" else s_spectrum_formula
    return weight_distribution(sums(params), params, code)


def check_cyclicity(ctx, params, code):
    """Shift-closure: rotating any codeword lands on another codeword, or
    `VerificationError` naming the table whose rows are not closed.

    Rotation by one reads the word of (alpha, beta, gamma) at pi x, which
    must be the word of (alpha pi^e1, beta pi^e2, gamma pi); c1 is the case
    gamma = 0. A word XORs one row of three tables, each holding the zero
    row, so this holds iff each row read at pi x is the row of its image:
    the sweeps' orbit proof, `_orbit_closure` on the alpha and beta rows
    (all for n <= CYCLICITY_EXHAUSTIVE_MAX_N, else a fixed sample, each
    proved once per field, so c1 and c2 share it) and, for c2,
    `_gamma_axis` on every gamma row. Either proof raises its own text.
    """
    if code not in CODES:
        raise ValueError(f"code must be one of {CODES}, got {code!r}")
    alphas = betas = None
    if ctx.n > CYCLICITY_EXHAUSTIVE_MAX_N:
        sub, q = subfield_elements(ctx, params.m), ctx.q
        alphas = sub[:3] + sub[-1:]
        betas = list(range(0, q, max(1, q // 7))) + [q - 1]
    _orbit_closure(ctx, params, alphas=alphas, betas=betas)
    if code == "c2":
        _gamma_axis(ctx)


def codeword_dump_lines(ctx, params, code):
    """Hex-packed codeword rows, one per parameter tuple, deterministic order."""
    q = ctx.q
    rows = _word_rows(ctx, params, subfield_elements(ctx, params.m), range(q),
                      range(q) if code == "c2" else [0])
    return [pack_bits_hex(word) for word in _words(rows)]


def check_parity(ctx, params, code, word):
    """The parity-check relation word(x) * h(x) == 0 mod x^(2^n - 1) + 1, or
    `VerificationError`."""
    h = parity_check_mask(ctx, params, code)
    prod = _gf2_polymul(int.from_bytes(_pack_bits(word), "little"), h)
    if _gf2_polymod(prod, (1 << ctx.order) | 1):
        raise VerificationError(
            f"a {code} word fails its parity-check product")

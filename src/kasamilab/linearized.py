"""Kernel ranks of the quadratic-form linearized map and related root counts.

The map phi_{a,b}(x) = a*x^(2^m) + b*x^(2^k) + b^(2^(n-k))*x^(2^(n-k)) is
GF(2^d)-linear; its kernel size determines the rank of the underlying
quadratic form over GF(2^d) and hence the exponential-sum value. The
substitution z = x^(2^k (2^(m-k)-1)) links kernel elements to roots of
psi_{a,b}(z) = b^(2^(n-k)) * z^(2^j+1) + a*z + b with j = (m-k) mod n, which
in turn is a scaled instance of the classical z^(2^h+1) + c*z + c root-count
problem whose distribution over c is known exactly. No verify record reads
psi: the tests check the root-count/kernel link at (4,1), pairing the
schoolbook `reference.psi_roots_naive` with the full kernel table.

The kernel law is checked in one place, `_kernel_dims`, from the phi rows'
bits, at the pairs of the orbit rule `expsum._pair_orbits` that the rank
profile and the gamma-sweep read, each standing for its orbit by the orbit
lemma on the value rows `expsum._rows` builds from their definitions, a
block of the rule's betas at a time, in the order the gamma-sweep reads.

Results are plain tuples, measured and closed form alike: a rank profile is
(n0, n2, n4), the counts of ranks s, s - 2 and s - 4, and root counts are
(n0, n1, n2, n_top), the b with 0, 1, 2 and 2^e + 1 roots.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .distribution import VerificationError, _exact, _histogram, _p2
from .expsum import _eps1, _monomial_rows, _pair_orbits, t_spectrum_formula
from .field import _gf2_linear, _mul, power_table

__all__ = [
    "kernel_dims", "rank_profile", "rank_profile_formula", "bluher_counts",
    "bluher_counts_formula",
]


def _phi_rows(ctx, params, alpha, betas):
    """phi_{alpha,beta}(x) over all x, one row per beta: x phi(x) = alpha x^e1
    + beta x^e2 + (beta x^e2)^(2^(n-k)), off the value rows, divided by x."""
    rows = _monomial_rows(ctx, betas, params.k)
    rows ^= power_table(ctx, 1 << (params.n - params.k))[rows]
    rows ^= _monomial_rows(ctx, alpha, params.m)
    return _mul(ctx, power_table(ctx, ctx.order - 1), rows)


def _kernel_dims(ctx, params, alpha, betas):
    """Kernel dimensions over GF(q0) of phi_{alpha,beta}, one per beta.

    Checked from the bits of the phi rows: each kernel size is a power of
    q0, and each phi is GF(2)-linear and commutes with a generator g of
    GF(q0)* (on the basis x = 2^i, enough once phi is linear). So phi is
    GF(q0)-linear and its kernel a GF(q0)-subspace.
    """
    dim_of = np.full(ctx.q + 1, -1, dtype=np.int64)
    dim_of[params.q0 ** np.arange(params.s + 1)] = np.arange(params.s + 1)
    g = ctx.pow(ctx.pi, ctx.order // (params.q0 - 1))
    basis = 1 << np.arange(ctx.n, dtype=np.int64)
    betas = np.asarray(betas, dtype=np.int64)
    phi = _phi_rows(ctx, params, alpha, betas)
    sizes = np.count_nonzero(phi == 0, axis=1)
    dims = dim_of[sizes]
    if (dims < 0).any():
        raise VerificationError(f"kernel size {sizes[dims < 0][0]} is "
                                f"not a power of q0={params.q0}")
    linear = _gf2_linear(phi) & (
        phi[:, _mul(ctx, g, basis)] == _mul(ctx, g, phi[:, basis])).all(1)
    if not linear.all():
        raise VerificationError(
            f"phi_({alpha:#x}, {betas[~linear][0]:#x}) is not "
            f"GF({params.q0})-linear")
    return dims


def kernel_dims(ctx, params):
    """(dims, weights): the kernel dimension over GF(q0) of phi_{alpha,beta}
    at each pair of `expsum._pair_orbits` (phi is read off its value rows),
    block by block in the rule's order, alpha = 0's first, and the number
    of pairs its orbit holds, int64 arrays with (0, 0) first."""
    orbits = _pair_orbits(ctx, params)
    return (np.concatenate([_kernel_dims(ctx, params, alpha, betas)
                            for alpha, blocks in orbits
                            for betas, _ in blocks]),
            np.concatenate([weights for _, blocks in orbits
                            for _, weights in blocks]))


def rank_profile(kernel):
    """Rank counts (n0, n2, n4) of ranks s, s - 2, s - 4 over all
    (alpha, beta) != (0, 0): each dimension of `kernel_dims`' (dims,
    weights), counted once per pair of its orbit."""
    # (0, 0), the first pair, has no form.
    counts = dict.fromkeys((0, 2, 4), 0)
    for dim, weight in zip(*(part[1:].tolist() for part in kernel)):
        counts[dim] = counts.get(dim, 0) + weight
    unexpected = {key: c for key, c in counts.items() if key not in (0, 2, 4)}
    if unexpected:
        raise VerificationError(f"kernel dimensions outside 0/2/4 observed: {unexpected}")
    return counts[0], counts[2], counts[4]


def rank_profile_formula(params):
    """Closed-form rank counts (n0, n2, n4), which must sum to 2^(3m) - 1.

    For d' = d these are the direct kernel-count expressions. For d' = 2d each
    rank class takes exactly one T value, so the counts are the T table's
    multiplicities at -2^m (rank s), 2^(m+d) (rank s - 2) and -2^(m+2d)
    (rank s - 4).
    """
    n, m, d = params.n, params.m, params.d
    if params.d_prime == params.d:
        den = _p2(2 * d) - 1
        n0 = _exact(_eps1(params) * (_p2(m) - 1) / den)
        n2 = _exact((_p2(m + d) - 1) * (_p2(n) - 1) / den)
        n4 = 0
    else:
        t = t_spectrum_formula(params)
        n0, n2, n4 = (t.count(v) for v in
                      (-(1 << m), 1 << (m + d), -(1 << (m + 2 * d))))
    if n0 + n2 + n4 != (1 << (3 * m)) - 1:
        raise VerificationError(f"rank counts sum to {n0 + n2 + n4}, "
                                f"expected {(1 << (3 * m)) - 1}")
    return n0, n2, n4


def bluher_counts(ctx, h):
    """Measured root counts of z^(2^h+1) + b*z + b over b != 0: the numbers
    (n0, n1, n2, n_top) of b with 0, 1, 2 and 2^e+1 roots, e = gcd(h, l).

    For b != 0 neither 0 nor 1 is a root, and any other z is a root for
    exactly one b, z^(2^h+1) / (z + 1). One bincount of that b over z thus
    counts the roots of every b; each counted pair is evaluated to check
    that it is a root.
    """
    l = ctx.n
    if not 1 <= h <= l - 1:
        raise ValueError(f"h must satisfy 1 <= h <= {l - 1}, got {h}")
    e = gcd(h, l)
    z = np.arange(2, ctx.q, dtype=np.int64)
    pz = power_table(ctx, (1 << h) + 1)[z]
    b = _mul(ctx, pz, power_table(ctx, ctx.order - 1)[z ^ 1])
    if (pz ^ _mul(ctx, b, z) ^ b).any():
        raise VerificationError("a counted z is not a root of its b")
    roots = np.bincount(b, minlength=ctx.q)[1:]
    hist = {0: 0, 1: 0, 2: 0, (1 << e) + 1: 0}
    counts = _histogram(roots)
    if not counts.keys() <= hist.keys():
        b, count = next((b, c) for b, c in enumerate(roots.tolist(), 1)
                        if c not in hist)
        raise VerificationError(
            f"b={b}: {count} roots, outside {{0, 1, 2, 2^{e}+1}}")
    hist.update(counts)
    return hist[0], hist[1], hist[2], hist[(1 << e) + 1]


def bluher_counts_formula(l, h):
    """Closed-form root counts (n0, n1, n2, n_top), split on the parity of
    l/e; they must sum to 2^l - 1."""
    if not 1 <= h <= l - 1:
        raise ValueError(f"h must satisfy 1 <= h <= {l - 1}, got {h}")
    e = gcd(h, l)
    if (l // e) % 2 == 0:
        n0 = _exact((_p2(l + e) - _p2(e)) / (2 * (_p2(e) + 1)))
        n1 = _exact(_p2(l - e))
        n_top = _exact((_p2(l - e) - _p2(e)) / (_p2(2 * e) - 1))
    else:
        n0 = _exact((_p2(l + e) + _p2(e)) / (2 * (_p2(e) + 1)))
        n1 = _exact(_p2(l - e) - 1)
        n_top = _exact((_p2(l - e) - 1) / (_p2(2 * e) - 1))
    n2 = _exact((_p2(e) - 2) * (_p2(l) - 1) / (2 * (_p2(e) - 1)))
    counts = (n0, n1, n2, n_top)
    if sum(counts) != (1 << l) - 1:
        raise VerificationError(
            f"Bluher counts sum to {sum(counts)}, expected {(1 << l) - 1}")
    return counts

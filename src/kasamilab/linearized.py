"""Kernel ranks of the quadratic-form linearized map and related root counts.

The map phi_{a,b}(x) = a*x^(2^m) + b*x^(2^k) + b^(2^(n-k))*x^(2^(n-k)) is
GF(2^d)-linear; its kernel size determines the rank of the underlying
quadratic form over GF(2^d) and hence the exponential-sum value. The
substitution z = x^(2^k (2^(m-k)-1)) links kernel elements to roots of
psi_{a,b}(z) = b^(2^(n-k)) * z^(2^j+1) + a*z + b with j = (m-k) mod n, which
in turn is a scaled instance of the classical z^(2^h+1) + c*z + c root-count
problem whose distribution over c is known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .distribution import VerificationError, _exact, _p2
from .field import (FieldContext, Params, power_table, scale_table,
                    subfield_elements, canonical_index)

__all__ = [
    "RankProfile", "BluherCounts", "phi_eval", "kernel_size", "rank_of",
    "rank_profile", "rank_profile_formula", "psi_root_count",
    "bluher_counts", "bluher_counts_formula",
]


@dataclass(frozen=True)
class RankProfile:
    """Counts of quadratic-form ranks s, s-2, s-4 over all pairs != (0, 0).

    records, when kept, holds (alpha_index, beta_index, kernel_dim, rank)
    tuples; alpha_index is the position in subfield_elements order and
    beta_index is 0 for 0 else 1 + discrete log.
    """

    n: int
    k: int
    n0: int
    n2: int
    n4: int
    records: tuple = None

    def to_json_dict(self):
        return {"n": self.n, "k": self.k,
                "n0": self.n0, "n2": self.n2, "n4": self.n4}

    @property
    def total(self):
        return self.n0 + self.n2 + self.n4


@dataclass(frozen=True)
class BluherCounts:
    """Distribution of root counts of z^(2^h+1) + b*z + b over b in GF(2^l)*.

    n0/n1/n2/n_top count the b with 0, 1, 2, and 2^e+1 roots, e = gcd(h, l).
    """

    l: int
    h: int
    e: int
    n0: int
    n1: int
    n2: int
    n_top: int

    def as_tuple(self):
        return (self.n0, self.n1, self.n2, self.n_top)

    @property
    def total(self):
        return self.n0 + self.n1 + self.n2 + self.n_top


def phi_eval(ctx, params, alpha, beta, x):
    """phi_{alpha,beta}(x) for scalars."""
    m, k, n = params.m, params.k, params.n
    bnk = ctx.pow(beta, 1 << (n - k))
    return (ctx.mul(alpha, ctx.pow(x, 1 << m))
            ^ ctx.mul(beta, ctx.pow(x, 1 << k))
            ^ ctx.mul(bnk, ctx.pow(x, 1 << (n - k))))


def _phi_vector(ctx, params, alpha, beta):
    """phi values over all x at once."""
    pm = power_table(ctx, 1 << params.m)
    pk = power_table(ctx, 1 << params.k)
    pnk = power_table(ctx, 1 << (params.n - params.k))
    bnk = ctx.pow(beta, 1 << (params.n - params.k))
    return (scale_table(ctx, alpha)[pm]
            ^ scale_table(ctx, beta)[pk]
            ^ scale_table(ctx, bnk)[pnk])


def kernel_size(ctx, params, alpha, beta):
    """Number of zeros of phi_{alpha,beta}; a power of q0 = 2^d."""
    return int(np.count_nonzero(_phi_vector(ctx, params, alpha, beta) == 0))


def rank_of(ctx, params, alpha, beta):
    """(kernel_dim_over_q0, rank) for one pair, with the subspace law verified.

    The zero set is checked to be closed under addition and under scaling by
    GF(2^d)*, so its size is a clean q0 power and rank = s - dim is sound.
    """
    if alpha == 0 and beta == 0:
        raise ValueError("(0, 0) has no associated quadratic form")
    vec = _phi_vector(ctx, params, alpha, beta)
    kernel = np.flatnonzero(vec == 0)
    size = len(kernel)
    kset = set(int(v) for v in kernel)
    for u in kset:
        for v in kset:
            if u ^ v not in kset:
                raise VerificationError("kernel is not closed under addition")
    for lam in subfield_elements(ctx, params.d)[1:]:
        if any(ctx.mul(lam, u) not in kset for u in kset):
            raise VerificationError("kernel is not GF(q0)-stable")
    dim = 0
    while params.q0 ** dim < size:
        dim += 1
    if params.q0 ** dim != size:
        raise VerificationError(f"kernel size {size} is not a power of q0={params.q0}")
    return dim, params.s - dim


def rank_profile(ctx, params, keep_records=False):
    """Measured rank counts over all (alpha, beta) != (0, 0)."""
    q = ctx.q
    sub = subfield_elements(ctx, params.m)
    pm = power_table(ctx, 1 << params.m)
    pk = power_table(ctx, 1 << params.k)
    pnk = power_table(ctx, 1 << (params.n - params.k))
    log = ctx.log_table
    exp = ctx.exp_table
    order = ctx.order

    lk = log[pk]        # -1 at x = 0
    lnk = log[pnk]
    nz = np.arange(1, q, dtype=np.int64)  # x != 0 column indices

    betas = np.arange(q, dtype=np.int64)
    bnks = pnk[betas]
    counts = {0: 0, 2: 0, 4: 0}
    records = [] if keep_records else None
    canon = canonical_index(ctx) if keep_records else None

    chunk = max(1, (1 << 22) // q)
    for ai, alpha in enumerate(sub):
        acol = scale_table(ctx, alpha)[pm][nz]  # alpha * x^(2^m), x != 0
        for b0 in range(0, q, chunk):
            bs = betas[b0:b0 + chunk]
            lbs = log[bs][:, None]
            lbnk = log[bnks[b0:b0 + chunk]][:, None]
            term_k = exp[(lbs + lk[None, nz]) % order]
            term_k[bs == 0] = 0
            term_nk = exp[(lbnk + lnk[None, nz]) % order]
            term_nk[bs == 0] = 0
            vals = acol[None, :] ^ term_k ^ term_nk
            # kernel size = 1 + zeros among x != 0 (phi(0) = 0 always)
            ksz = 1 + np.count_nonzero(vals == 0, axis=1)
            for i, b in enumerate(bs):
                if alpha == 0 and b == 0:
                    continue
                size = int(ksz[i])
                dim = 0
                while params.q0 ** dim < size:
                    dim += 1
                if params.q0 ** dim != size:
                    raise VerificationError(
                        f"kernel size {size} at ({alpha},{int(b)}) is not a q0 power")
                if dim not in counts:
                    counts[dim] = 0
                counts[dim] += 1
                if keep_records:
                    records.append((ai, int(canon[b]), dim, params.s - dim))
    unexpected = {key: c for key, c in counts.items() if key not in (0, 2, 4) and c}
    if unexpected:
        raise VerificationError(f"kernel dimensions outside 0/2/4 observed: {unexpected}")
    return RankProfile(n=params.n, k=params.k, n0=counts[0], n2=counts[2],
                       n4=counts[4],
                       records=tuple(records) if keep_records else None)


def rank_profile_formula(params):
    """Closed-form rank counts.

    For d' = d these are the direct kernel-count expressions. For d' = 2d the
    per-rank counts are forced by the value distribution (each rank class maps
    to exactly one sum value), so the value-table multiplicities are used.
    """
    n, m, d = params.n, params.m, params.d
    if params.d_prime == params.d:
        e1 = (_p2(n + 2 * d) - _p2(n + d) - _p2(n) + _p2(m + 2 * d)
              - _p2(m + d) + _p2(2 * d))
        n0 = _exact(e1 * (_p2(m) - 1) / (_p2(2 * d) - 1))
        n2 = _exact((_p2(m + d) - 1) * (_p2(n) - 1) / (_p2(2 * d) - 1))
        n4 = 0
    else:
        e2 = (_p2(n) - _p2(n - 2 * d) - _p2(n - 3 * d) + _p2(m)
              - _p2(m - d) + 1)
        n0 = _exact(_p2(3 * d) * (_p2(m) - 1) * e2
                    / ((_p2(d) + 1) * (_p2(2 * d) - 1)))
        n2 = _exact(_p2(d) * (_p2(n) - 1) * (_p2(m) + _p2(m - d) + _p2(m - 2 * d) + 1)
                    / (_p2(d) + 1) ** 2)
        n4 = _exact((_p2(m - d) - 1) * (_p2(n) - 1)
                    / ((_p2(d) + 1) * (_p2(2 * d) - 1)))
    prof = RankProfile(n=params.n, k=params.k, n0=n0, n2=n2, n4=n4)
    if prof.total != (1 << (3 * m)) - 1:
        raise VerificationError(
            f"rank counts sum to {prof.total}, expected {(1 << (3 * m)) - 1}")
    return prof


def psi_root_count(ctx, params, alpha, beta):
    """Roots in GF(2^n) of b^(2^(n-k)) z^(2^j+1) + a z + b, j = (m-k) mod n."""
    if alpha == 0 or beta == 0:
        raise ValueError("psi root counting needs alpha != 0 and beta != 0")
    j = (params.m - params.k) % params.n
    pj = power_table(ctx, (1 << j) + 1)
    bnk = ctx.pow(beta, 1 << (params.n - params.k))
    vals = (scale_table(ctx, bnk)[pj]
            ^ scale_table(ctx, alpha)[np.arange(ctx.q, dtype=np.int64)]
            ^ beta)
    count = int(np.count_nonzero(vals == 0))
    allowed = {0, 1, 2, (1 << params.d_prime) + 1}
    if count not in allowed:
        raise VerificationError(f"unexpected root count {count}, allowed {allowed}")
    return count


def bluher_counts(ctx, h):
    """Measured root-count distribution of z^(2^h+1) + b*z + b over b != 0."""
    l = ctx.n
    if not 1 <= h <= l - 1:
        raise ValueError(f"h must satisfy 1 <= h <= {l - 1}, got {h}")
    e = gcd(h, l)
    q = ctx.q
    pz = power_table(ctx, (1 << h) + 1)[1:]          # z^(2^h+1), z != 0
    log = ctx.log_table
    exp = ctx.exp_table
    lz = log[np.arange(1, q, dtype=np.int64)]
    hist = {0: 0, 1: 0, 2: 0, (1 << e) + 1: 0}
    for b in range(1, q):
        lb = int(log[b])
        bz = exp[(lb + lz) % ctx.order]
        roots = int(np.count_nonzero((pz ^ bz ^ b) == 0))
        if roots not in hist:
            raise VerificationError(
                f"b={b}: {roots} roots, outside {{0, 1, 2, 2^{e}+1}}")
        hist[roots] += 1
    return BluherCounts(l=l, h=h, e=e, n0=hist[0], n1=hist[1], n2=hist[2],
                        n_top=hist[(1 << e) + 1])


def bluher_counts_formula(l, h):
    """Closed-form root-count distribution; split on the parity of l/e."""
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
    counts = BluherCounts(l=l, h=h, e=e, n0=n0, n1=n1, n2=n2, n_top=n_top)
    if counts.total != (1 << l) - 1:
        raise VerificationError(
            f"Bluher counts sum to {counts.total}, expected {(1 << l) - 1}")
    return counts

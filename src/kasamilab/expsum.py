"""Exponential sums of Kasami type: brute-force sweeps and closed-form tables.

T(a, b) sums (-1)^(Tr_m(a x^(2^m+1)) + Tr_n(b x^(2^k+1))) over GF(2^n) with a
drawn from the subfield copy of GF(2^m); S(a, b, g) adds a linear term
Tr_n(g x). The popcount sweep counts wt(row) of the trace bits: T = q - 2 wt
and the c1 code weights are wt; over the gamma axis, S = q - 2 wt and the c2
weights are wt, each counted as wt at g = 0 plus q - 1 copies of wt at g = 1.
That leans on the orbit lemma, `field._orbit_lemma`: x -> c x carries the
row of (a, b, g) onto that of (a c^e1, b c^e2, g c), so g = 1 stands for
every g != 0, and one pair of `_pair_orbits`, the orbit rule, for each
orbit of pairs, since `_rows` builds each row a sweep reads from its
definition on the lemma's tables. The gamma-sweep transforms those rows'
signs (int16 while q fits, else int32) over an axis `_gamma_axis` proves
to be the gamma axis.
Closed-form tables, split on the parity case, predict each sweep; callers
compare the two, never papering over a mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .distribution import ValueDistribution, VerificationError, _exact, _p2
from .field import (_cached, _gf2_linear, _mul, _orbit_lemma, _times,
                    power_table, rel_trace_table, subfield_elements)

__all__ = [
    "t_spectrum", "t_spectrum_formula", "s_spectrum",
    "s_spectrum_formula", "gamma_sweep", "gamma_sweep_formula", "moments",
    "moment_targets", "artin_schreier_points", "artin_schreier_sweep",
]

_LAST_ROW_NOTE = ("tabulated distribution lists the single all-zero row with "
                  "value 2^m; its weight-0 row forces value 2^n, which is "
                  "emitted here (misprint flagged, not silently adopted)")


def _rows(ctx, coeffs, e, outer=None):
    """Row outer[c P_e[x]] over x in mask order for each coefficient c (one
    row for a scalar c), P_e the x^e table: uint8 trace bits, outer being a
    trace table, or without outer the int64 values c x^e. This is the
    definition the orbit lemma's law is read on, and every row the package
    reads is built here, span by span, at most 2^15 // q rows of int64
    products at a time. A trace row holding a value other than 0 or 1
    raises `VerificationError` (Tr_m is a bit only on GF(2^m))."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    flat, times = coeffs.reshape(-1), _times(ctx, power_table(ctx, e))
    out = np.empty((len(flat), ctx.q), np.int64 if outer is None else np.uint8)
    if outer is not None:
        # Every entry off the bits reads as 2 or 255.
        outer = np.clip(outer, -1, 2).astype(np.uint8)
    span = max(1, (1 << 15) // ctx.q)
    for i in range(0, len(flat), span):
        rows = out[i:i + span]
        values = times(flat[i:i + span, None])
        if outer is None:
            rows[...] = values
        elif (np.take(outer, values, out=rows) > 1).any():
            raise VerificationError(
                f"a trace row of x^{e} holds a value other than 0 or 1")
    return out.reshape(coeffs.shape + (ctx.q,))


def _trace_rows(ctx, params, alphas, betas, gammas):
    """uint8 rows over x in GF(2^n), in mask order, of Tr_m(a x^e1),
    Tr_n(b x^e2) and Tr_n(g x), one row per coefficient, each built by
    `_rows`; every a must lie in GF(2^m)."""
    alphas = np.asarray(alphas, dtype=np.int64)
    outside = alphas[power_table(ctx, 1 << params.m)[alphas] != alphas]
    if len(outside):
        raise ValueError(f"alpha {int(outside[0]):#x} is not in the "
                         f"GF(2^{params.m}) subfield")
    trace_m = rel_trace_table(ctx, 1, params.m)
    trace_n = rel_trace_table(ctx, 1, params.n)
    return (_rows(ctx, alphas, params.e_norm, trace_m),
            _rows(ctx, betas, params.e_quad, trace_n),
            _rows(ctx, gammas, 1, trace_n))


def _monomial_rows(ctx, coeffs, h):
    """int64 value rows c x^(2^h+1) over x in mask order, one per
    coefficient c, by `_rows`."""
    return _rows(ctx, coeffs, (1 << h) + 1)


def _butterflies(mat, h):
    """Walsh-Hadamard butterflies of each row at strides h, 2h, ... < length."""
    rows, length = mat.shape
    out = np.empty_like(mat)
    while h < length:
        pairs, into = mat.reshape(rows, -1, 2, h), out.reshape(rows, -1, 2, h)
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=into[:, :, 0])
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=into[:, :, 1])
        mat, out = out, mat
        h *= 2
    return mat


def _fwht(mat):
    """Walsh-Hadamard transform of each row, power-of-2 length.

    A butterfly over a short stride adds blocks too small to stream, so the
    strides over the low half of the index bits run after a transpose that
    makes those bits high, and a second transpose restores the order.
    """
    rows, length = mat.shape
    low = 1 << (length.bit_length() - 1) // 2
    mat = _butterflies(mat, low)
    mat = mat.reshape(rows, -1, low).transpose(0, 2, 1).reshape(rows, length)
    mat = _butterflies(mat, length // low)
    return mat.reshape(rows, low, -1).transpose(0, 2, 1).reshape(rows, length)


def _walsh_dtype(n):
    """int16 while every value of a length-2^n transform of signs, and of
    each butterfly stage before it, within +-q = 2^n, fits in it (n <= 14),
    else int32."""
    return np.int16 if 1 << n <= np.iinfo(np.int16).max else np.int32


def _walsh(bits):
    """Walsh transform of the signs (-1)^bit of each row of trace bits, in
    the narrowest exact integer dtype."""
    n = bits.shape[-1].bit_length() - 1
    return _fwht(np.subtract(1, 2 * bits, dtype=_walsh_dtype(n)))


def _gamma_axis(ctx):
    """Prove that the Walsh transform index u is the gamma axis: Tr_n is
    GF(2)-linear and, by the orbit lemma, so is x -> g x, so each row
    Tr_n(g x) is the functional x -> u(g).x, u(g) the bits Tr_n(g 2^j) at
    x = 2^j; and those n bits of each g give each u once (n x q). Once per
    field, by `_cached`."""
    def prove():
        _orbit_lemma(ctx)
        trace = rel_trace_table(ctx, 1, ctx.n)
        if not _gf2_linear(trace):
            raise VerificationError("Tr_n is not GF(2)-linear")
        gammas = np.arange(ctx.q)
        index = sum(trace[_mul(ctx, gammas, 1 << j)] << j
                    for j in range(ctx.n))
        if (np.bincount(index, minlength=ctx.q) != 1).any():
            raise VerificationError("the rows Tr_n(g x) repeat a functional")

    _cached(ctx, "gamma_axis", prove)


def _popcounts(apacked, bpacked):
    """wt(a ^ b) for each row a of apacked (a row of the result) and b of
    bpacked (a column): rows of bits packed eight to a byte by
    `np.packbits`, read as u2 (n = 4) or u8 words."""
    words = f"u{min(8, bpacked.shape[-1])}"
    b = bpacked.view(words)
    out = np.empty((len(apacked), len(b)), dtype=np.intp)
    for row, a in zip(out, apacked.view(words)):
        np.bitwise_count(a ^ b).sum(axis=1, out=row)
    return out


def _t_table(ctx, params, apacked, betas):
    """T(alpha, beta) = q - 2 wt(row) for each packed alpha row of trace bits
    (one row of the result each) and each beta (one column each), the row
    being the alpha row XOR the bits Tr_n(b x^e2). The beta rows are built
    in `_blocks` and each block is packed as it is built, so only one block
    of them is ever unpacked."""
    q = ctx.q
    bpacked = np.empty((len(betas), q // 8), dtype=np.uint8)
    done = 0
    for block in _blocks(betas, q):
        bpacked[done:done + len(block)] = np.packbits(
            _trace_rows(ctx, params, [], block, [])[1], axis=-1)
        done += len(block)
    return q - 2 * _popcounts(apacked, bpacked)


def _pair_orbits(ctx, params):
    """The orbit rule, ((0, betas, weights), (1, betas, weights)): one beta
    per orbit of the 2^(3m) pairs (alpha, beta) under x -> c x, and the
    number of pairs in each. By the orbit lemma, made here, x -> c x reads
    each row `_rows` builds for (alpha, beta), a' for alpha, as that of
    (alpha c^e1, beta c^e2). As c^e1 runs over GF(2^m)*, alpha = 1 stands
    for every alpha != 0 (and a' = pi^j for its coset of e1-th powers), and
    beta falls into orbits under c^e2, c over GF(q)* or the stabilizer
    c^e1 = 1: the cosets of pi^g, g = gcd(e2, L) or gcd((2^m - 1) e2, L),
    L = q - 1. Each alpha reads beta = 0 and pi^j, j < g, of weight L / g,
    times 2^m - 1 for alpha = 1."""
    _orbit_lemma(ctx, params.e_norm, params.e_quad)
    order, units = ctx.order, (1 << params.m) - 1
    return tuple((alpha, np.append(0, ctx.exp_table[:g]),
                  times * np.append(1, np.full(g, order // g)))
                 for alpha, g, times in (
                     (0, gcd(params.e_quad, order), 1),
                     (1, gcd(units * params.e_quad, order), units)))


def _popcount_sweep(ctx, params, linear=False):
    """The popcount sweep: the distribution of T = q - 2 wt(row) over all
    2^(3m) pairs, from the weights of the representatives of
    `_pair_orbits`, each counted once per pair of its orbit; with `linear`,
    that of S = q - 2 wt over all 2^(3m) q triples, the row adding
    Tr_n(gamma x). Either total is checked.

    S at gamma = 0 is T; with c = 1/gamma, S over gamma != 0 is q - 1 times
    the sweep of every alpha row XOR Tr_n(x), built on the x^1 table whose
    law the lemma proves too, against every beta, max(64, 2^21 // q) betas
    at a time, on one thread: a span of beta rows is at most 256 kB packed
    up to n = 14, and is never held unpacked.
    """
    q, weights = ctx.q, np.zeros(ctx.q + 1, dtype=np.int64)
    for alpha, betas, sizes in _pair_orbits(ctx, params):
        apacked = np.packbits(_trace_rows(ctx, params, [alpha], [], [])[0],
                              axis=-1)
        t = _t_table(ctx, params, apacked, betas)
        np.add.at(weights, (q - t[0]) >> 1, sizes)
    name, covered, total = "T", "pairs", 1 << (3 * params.m)
    if linear:
        _orbit_lemma(ctx, 1)
        arows, _, grow = _trace_rows(ctx, params,
                                     subfield_elements(ctx, params.m), [], [1])
        apacked = np.packbits(arows ^ grow, axis=-1)
        chunk = max(64, (1 << 21) // q)
        for i in range(0, q, chunk):
            t = _t_table(ctx, params, apacked, range(i, min(i + chunk, q)))
            weights += (q - 1) * np.bincount((q - t).ravel() >> 1,
                                             minlength=q + 1)
        name, covered, total = "S", "triples", total * q
    dist = ValueDistribution.from_counts(
        (q - 2 * w, c) for w, c in enumerate(weights.tolist()))
    if dist.total != total:
        raise VerificationError(f"{name} sweep covered {dist.total} {covered}")
    return dist


def t_spectrum(ctx, params):
    """Measured distribution of T over all (alpha, beta) pairs: the popcount
    sweep."""
    return _popcount_sweep(ctx, params)


def _blocks(values, q):
    """values in consecutive blocks of at most 2^19 // q (at least one), so
    that a block of rows of q entries holds at most 2^19 entries."""
    span = max(1, (1 << 19) // q)
    return [values[i:i + span] for i in range(0, len(values), span)]


def s_spectrum(ctx, params):
    """Measured distribution of S over all (alpha, beta, gamma) triples: the
    popcount sweep over the gamma axis."""
    return _popcount_sweep(ctx, params, linear=True)


def gamma_sweep(ctx, params, dims):
    """None when S over gamma, for each pair of `_pair_orbits`, has the
    counts of 0 and +-peak (they sum to q) `gamma_sweep_formula` gives its
    rank, s minus its entry of dims, in the order of `kernel_dims` ((0, 0)
    has no form); else raises VerificationError naming the first pair off
    its law, the betas taken in `_blocks`. `_gamma_axis` makes the
    transform index gamma."""
    table = np.zeros((params.s + 1, 4), dtype=np.int64)
    for rank in range(0, params.s + 1, 2):
        want = gamma_sweep_formula(params, rank)
        peak = max(want.values)
        table[rank] = peak, want.count(0), want.count(peak), want.count(-peak)
    _gamma_axis(ctx)
    ranks = params.s - np.asarray(dims)
    for alpha, betas, _ in _pair_orbits(ctx, params):
        arow = _trace_rows(ctx, params, [alpha], [], [])[0]
        for block in _blocks(betas, ctx.q):
            walsh = _walsh(arow ^ _trace_rows(ctx, params, [], block, [])[1])
            rank, ranks = ranks[:len(block)], ranks[len(block):]
            peak = table[rank, :1].astype(walsh.dtype)
            got = np.stack([(walsh == v).sum(axis=1)
                            for v in (0, peak, -peak)], axis=1)
            bad = np.flatnonzero((got != table[rank, 1:]).any(axis=1)
                                 & ((block != 0) | (alpha != 0)))
            if bad.size:
                raise VerificationError(
                    f"pair ({alpha:#x}, {int(block[bad[0]]):#x}) deviates "
                    f"from the rank-{int(rank[bad[0]])} law")


def gamma_sweep_formula(params, rank):
    """Predicted gamma-sweep distribution for a pair whose form has the given rank."""
    if rank % 2 or not 0 <= rank <= params.s:
        raise ValueError(f"rank must be even in [0, {params.s}], got {rank}")
    q0, s = params.q0, params.s
    peak = q0 ** (s - rank // 2)
    counts = {
        0: q0 ** s - q0 ** rank,
        peak: (q0 ** rank + q0 ** (rank // 2)) // 2,
        -peak: (q0 ** rank - q0 ** (rank // 2)) // 2,
    }
    return ValueDistribution.from_counts(counts)


# Terms shared by the closed-form tables: eps1 for d' = d; eps2, xi2, the sum
# b and the denominator (2^d + 1)(2^(2d) - 1) for d' = 2d.

def _eps1(p):
    return (_p2(p.n + 2 * p.d) - _p2(p.n + p.d) - _p2(p.n) + _p2(p.m + 2 * p.d)
            - _p2(p.m + p.d) + _p2(2 * p.d))


def _eps2(p):
    return (_p2(p.n) - _p2(p.n - 2 * p.d) - _p2(p.n - 3 * p.d) + _p2(p.m)
            - _p2(p.m - p.d) + 1)


def _xi2(p):
    n, m, d = p.n, p.m, p.d
    return (_p2(3 * m - d) - _p2(3 * m - 2 * d) + _p2(3 * m - 3 * d)
            - _p2(3 * m - 4 * d) + _p2(3 * m - 5 * d) + _p2(n - d)
            - 2 * _p2(n - 2 * d) + _p2(n - 3 * d) - _p2(n - 4 * d) + 1)


def _b_sum(p):
    return _p2(p.m) + _p2(p.m - p.d) + _p2(p.m - 2 * p.d) + 1


def _den2(p):
    return (_p2(p.d) + 1) * (_p2(2 * p.d) - 1)


def _exact_table(params, name, rows, total):
    """A closed-form table as exact integer counts, with the (0, 0) row at 2^n
    and, for d' = 2d, the last-row misprint note; its total must be `total`."""
    rows[1 << params.n] = Fraction(1)
    notes = (_LAST_ROW_NOTE,) if params.d_prime != params.d else ()
    dist = ValueDistribution.from_counts({v: _exact(c) for v, c in rows.items()},
                                         notes=notes)
    if dist.total != total:
        raise VerificationError(
            f"{name} table multiplicities sum to {dist.total}")
    return dist


def t_spectrum_formula(params):
    """Closed-form T distribution; exact integer multiplicities enforced."""
    n, m, d = params.n, params.m, params.d
    rows = {}
    if params.d_prime == params.d:
        rows[1 << m] = (_p2(d - 1) * (_p2(m) - 1) * (_p2(n) + _p2(m + 1) + 1)
                        / (_p2(d) + 1))
        rows[-(1 << m)] = (_p2(d - 1) * (_p2(m) - 1)
                           * (_p2(n) - _p2(n - d + 1) + 1) / (_p2(d) - 1))
        rows[-(1 << (m + d))] = (_p2(m - d) - 1) * (_p2(n) - 1) / (_p2(2 * d) - 1)
        rows[0] = _p2(m - d) * (_p2(n) - 1)
    else:
        den = _den2(params)
        rows[-(1 << m)] = _p2(3 * d) * (_p2(m) - 1) * _eps2(params) / den
        rows[1 << (m + d)] = (_p2(d) * (_p2(n) - 1) * _b_sum(params)
                              / (_p2(d) + 1) ** 2)
        rows[-(1 << (m + 2 * d))] = (_p2(m - d) - 1) * (_p2(n) - 1) / den
    return _exact_table(params, "T", rows, 1 << (3 * m))


def s_spectrum_formula(params):
    """Closed-form S distribution; exact integer multiplicities enforced."""
    n, m, d = params.n, params.m, params.d
    rows = {}
    if params.d_prime == params.d:
        e1 = _eps1(params)
        den = _p2(2 * d) - 1
        rows[1 << m] = _p2(m - 1) * (_p2(n) - 1) * e1 / den
        rows[-(1 << m)] = _p2(m - 1) * (_p2(m) - 1) ** 2 * e1 / den
        rows[1 << (m + d)] = (_p2(m - d - 1) * (_p2(m - d) + 1)
                              * (_p2(m + d) - 1) * (_p2(n) - 1) / den)
        rows[-(1 << (m + d))] = (_p2(m - d - 1) * (_p2(m - d) - 1)
                                 * (_p2(m + d) - 1) * (_p2(n) - 1) / den)
        rows[0] = (_p2(3 * m - d) - _p2(n - 2 * d) + 1) * (_p2(n) - 1)
    else:
        e2, den, bsum = _eps2(params), _den2(params), _b_sum(params)
        rows[1 << m] = _p2(m + 3 * d - 1) * (_p2(n) - 1) * e2 / den
        rows[-(1 << m)] = _p2(m + 3 * d - 1) * (_p2(m) - 1) ** 2 * e2 / den
        rows[1 << (m + d)] = (_p2(m - 1) * (_p2(m - d) + 1) * (_p2(n) - 1)
                              * bsum / (_p2(d) + 1) ** 2)
        rows[-(1 << (m + d))] = (_p2(m - 1) * (_p2(m - d) - 1) * (_p2(n) - 1)
                                 * bsum / (_p2(d) + 1) ** 2)
        rows[1 << (m + 2 * d)] = (_p2(m - 2 * d - 1) * (_p2(m - 2 * d) + 1)
                                  * (_p2(m - d) - 1) * (_p2(n) - 1) / den)
        rows[-(1 << (m + 2 * d))] = (_p2(m - 2 * d - 1) * (_p2(m - 2 * d) - 1)
                                     * (_p2(m - d) - 1) * (_p2(n) - 1) / den)
        rows[0] = (_p2(n) - 1) * _xi2(params)
    return _exact_table(params, "S", rows, 1 << (3 * m + n))


def moment_targets(params):
    """Closed-form (m1, m2, m3)."""
    n, m, d = params.n, params.m, params.d
    pairs = 1 << (3 * m)

    def law(e):
        return pairs * ((1 << (n + e)) + (1 << n) - (1 << e))

    if params.d_prime == params.d:
        return pairs, 1 << (5 * m), law(d)
    return pairs, law(d), law(3 * d)


def moments(dist, params):
    """The first three power moments (m1, m2, m3) of a measured T
    distribution over all pairs, or `VerificationError` unless they equal
    the closed forms of `moment_targets`."""
    got = tuple(sum(v ** p * c for v, c in dist.entries) for p in (1, 2, 3))
    want = moment_targets(params)
    if got != want:
        raise VerificationError(f"moment mismatch: measured {got}, expected {want}")
    return got


def artin_schreier_points(ctx, params, alpha_prime, beta):
    """Exact count of (x, y) with a' x^(2^m+1) + b x^(2^k+1) = y^(2^d) + y.

    Pure point counting: the y side is histogrammed, the x side reads the
    value rows of a' x^e1 and b x^e2. Defined for the d' = 2d parameter
    case. An array of b gives an array of counts, one per b.
    """
    if params.d_prime != 2 * params.d:
        raise ValueError("point-count identity applies to the d' = 2d case only")
    y = np.arange(ctx.q)
    hist = np.bincount(power_table(ctx, 1 << params.d) ^ y, minlength=ctx.q)
    f = (_monomial_rows(ctx, alpha_prime, params.m)
         ^ _monomial_rows(ctx, beta, params.k))
    points = hist[f].sum(axis=-1)
    return int(points) if points.ndim == 0 else points


def artin_schreier_sweep(ctx, params):
    """None when every curve (a', beta) has q + (2^d - 1) T(Tr^n_m(a'), beta)
    points, by the orbit rule of `_pair_orbits`: a' = 0 against the betas
    of alpha = 0, and each coset representative pi^j, j <= 2^m, of the
    e1-th powers against those of alpha = 1 ((0, 0) left out); else raises
    VerificationError naming the first curve off, the betas taken in
    `_blocks`."""
    cosets = (np.zeros(1, np.int64), ctx.exp_table[:(1 << params.m) + 1])
    for aprimes, (_, betas, _) in zip(cosets, _pair_orbits(ctx, params)):
        traces = rel_trace_table(ctx, params.m, params.n)[aprimes]
        apacked = np.packbits(_trace_rows(ctx, params, traces, [], [])[0],
                              axis=-1)
        for block in _blocks(betas, ctx.q):
            want = ctx.q + ((1 << params.d) - 1) * _t_table(
                ctx, params, apacked, block)
            got = np.stack([artin_schreier_points(ctx, params, a, block)
                            for a in aprimes.tolist()])
            bad = np.argwhere((got != want)
                              & ((aprimes[:, None] != 0) | (block != 0)))
            if bad.size:
                r, c = bad[0]
                raise VerificationError(
                    f"({aprimes[r]:#x}, {block[c]:#x}): {got[r, c]} points, "
                    f"identity gives {want[r, c]}")

"""The binary sequence family and its exact correlation distribution.

Family members have period 2^n - 1 and are indexed by (alpha, beta) pairs
(norm + quadratic + linear trace terms), by beta alone (no linear term), and
by the bare quadratic term, depending on the parity case. Every periodic
cross-correlation reduces to S(alpha', beta', gamma') - 1 for parameters swept
bijectively by the relative shift, so the full correlation histogram is
predicted exactly by compositions of the closed-form sum distributions. The
literally tabulated histogram rows are also evaluated and compared, and any
discrepancy is reported as a flag, never silently repaired. The measured
histogram also decides the family's rotation-distinctness: two members
agree at every position at some shift exactly when one is a rotation of
the other, so the value L = 2^n - 1 occurs |F| times, each member against
itself at shift 0, iff every member has full period and no two are
rotations of each other.

The family is one uint8 matrix, a row per member holding its bits packed
eight to a byte, XORed from packed trace rows; every reader takes its rows
from there. `correlation_distribution` sweeps one representative per
decimation orbit against the members, tile by tile, up to three shifts to
a column of a float32 circulant product, exact at every n, so every pair
at every shift is counted. Each thread unpacks its own tiles, and no
buffer holds floats for the whole family.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import _word_rows
from .distribution import ValueDistribution, VerificationError, _exact, _p2
from .expsum import (_b_sum, _den2, _eps2, _xi2, s_spectrum_formula,
                     t_spectrum_formula)
from .field import _cycles, subfield_elements

__all__ = [
    "SequenceFamily", "family_size", "build_family",
    "correlation_distribution",
    "correlation_distribution_formula", "correlation_table_printed",
    "family_dump_lines",
]


def _unpacked(rows, L):
    """The L bits of each packed row (or of the one row given), as uint8."""
    return np.unpackbits(rows, axis=-1, count=L, bitorder="little")


@dataclass(frozen=True, eq=False)
class SequenceFamily:
    """All members for one parameter set, in deterministic build order.

    Member i is row i of `rows`: its L = 2^n - 1 bits packed eight to a
    byte, bit lam at bit lam % 8 of byte lam // 8 (numpy's bitorder
    "little", the order of `pack_bits_hex`). Labels are made when read,
    from the subfield elements `alphas` of the F1 members and the
    coefficients `norm_betas` of the F2 members.
    """

    params: object
    rows: np.ndarray
    alphas: tuple = ()
    norm_betas: tuple = ()

    @property
    def size(self):
        return len(self.rows)

    def label(self, i):
        """F1(alpha,beta), F2(beta) or F3: the label of member i."""
        q = self.params.q
        f1 = len(self.alphas) * q
        if i < f1:
            return f"F1({self.alphas[i // q]},{i % q})"
        if i < f1 + len(self.norm_betas):
            return f"F2({self.norm_betas[i - f1]})"
        return "F3"

    @property
    def members(self):
        """Each member as a record of its label and its unpacked bits, made
        when read and never stored; `bench/layers.py` counts the
        correlation work from it."""
        return _Members(self)


class _Members(Sequence):
    """The members of a family, unpacked one at a time as they are read."""

    def __init__(self, family):
        self._family = family

    def __len__(self):
        return self._family.size

    def __getitem__(self, i):
        fam = self._family
        i = range(fam.size)[i]
        return SimpleNamespace(
            label=fam.label(i),
            bits=_unpacked(fam.rows[i], fam.params.q - 1))


def family_size(params):
    """Member count: 2^(3m), plus 2^m - 1 or 2^m extra in the even cases."""
    base = 1 << (3 * params.m)
    if params.case == "EvenM":
        return base + (1 << params.m) - 1
    if params.case == "EvenK":
        return base + (1 << params.m)
    return base


def build_family(ctx, params):
    """Construct every member sequence; bit lam is the term at pi^lam.

    Members are code words: F1(alpha, beta) is the c2 word of (alpha, beta,
    1), F2(beta) the c1 word of (1, beta) and F3 the c1 word of (0, 1).
    Packing commutes with XOR, so the words are XORed from the packed rows
    straight into one matrix; no unpacked word matrix, and no second copy
    of the family, is ever held. Raises VerificationError unless the F1,
    F2 and F3 blocks fill `family_size` rows.
    """
    sub = subfield_elements(ctx, params.m)
    arows, brows, grows = (
        np.packbits(rows, axis=1, bitorder="little")
        for rows in _word_rows(ctx, params, sub, range(ctx.q), [1]))
    norm_betas = []
    if params.case in ("EvenM", "EvenK"):
        norm_betas = ctx.exp_table[:(1 << params.m) - 1].tolist()
    f1, f2 = len(sub) * ctx.q, len(norm_betas)
    size = f1 + f2 + (params.case == "EvenK")
    if size != family_size(params):
        raise VerificationError(
            f"family has {size} members, expected {family_size(params)}")
    rows = np.empty((size, arows.shape[1]), dtype=np.uint8)
    np.bitwise_xor(arows[:, None], brows ^ grows,
                   out=rows[:f1].reshape(len(sub), ctx.q, -1))
    rows[f1:f1 + f2] = arows[sub.index(1)] ^ brows[norm_betas]
    if params.case == "EvenK":
        rows[-1] = brows[1]
    return SequenceFamily(params=params, rows=rows, alphas=tuple(sub),
                          norm_betas=tuple(norm_betas))


def _decimation_orbits(packed, L):
    """Orbits of the member rows under decimation by 2, checked from the bits.

    The rows are the members' L bits packed eight to a byte. They are
    unpacked, decimated and packed again in blocks of rows; the decimation
    s[2 lam mod L] of every row must equal some row up to rotation, and n
    steps of the image map must return every row to itself (so it permutes
    the rows). Rows are looked up by their packed bits, at rotation 0
    first, which finds the F1 images, as they are exact; only a row missed
    there is looked up at every rotation. Returns each row's orbit id and
    the size of every orbit, the orbits numbered largest first and, within
    one size, in order of their first row.
    """
    index = {row.tobytes(): i for i, row in enumerate(packed)}
    decimation = 2 * np.arange(L) % L
    image = np.empty(len(packed), dtype=np.int64)
    block = max(1, _CHUNK // L)
    for lo in range(0, len(packed), block):
        bits = _unpacked(packed[lo:lo + block], L)[:, decimation]
        images = np.packbits(bits, axis=1, bitorder="little")
        for i, row in enumerate(images):
            j = index.get(row.tobytes())
            if j is None:
                # Row r of the windows is the decimation rotated by r.
                turned = np.packbits(
                    sliding_window_view(np.tile(bits[i], 2)[:-1], L),
                    axis=1, bitorder="little")
                j = next((index[t.tobytes()] for t in turned
                          if t.tobytes() in index), None)
            if j is None:
                raise VerificationError(f"the decimation of member {lo + i} "
                                        f"is no member up to rotation")
            image[lo + i] = j
    orbit, _, sizes = _cycles(image, L.bit_length())
    by_size = np.argsort(-sizes, kind="stable")
    renumber = np.argsort(by_size)
    return renumber[orbit], sizes[by_size].tolist()


def _shifts_per_column(L):
    """D, the shifts a column of the float32 correlation product of period
    L holds: min(3, 24 // n). Every partial sum is k/2 with |k| <= M^D - 1,
    M = L + 1 (L half signs against entries of at most (M^D - 1)/L), exact
    while M^D - 1 < 2^24: three shifts up to n = 8, two at n = 10 and 12,
    and one from n = 14 on, where M - 1 < 2^24 holds up to n = 24."""
    return min(3, 24 // L.bit_length())


def _tile_rows(L):
    """Members per tile of the correlation product of period L: 4 (L + 2),
    so that each representative's product over a tile outweighs its
    circulant, rebuilt for every tile. Per thread, the tile bounds its
    signs, 4 (L + 2) rows of L floats, and its product, of L/D columns."""
    return 4 * (L + 2)


def _thread_count(workers, tasks):
    """Threads for `tasks` independent tasks: never more than the CPUs this
    process may run on (its affinity mask, where the platform has one)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(workers, cpus, tasks))


# Member bits unpacked at a time to find their decimation images.
_CHUNK = 1 << 16


def _value_counts(block, known):
    """Sorts the block in place; returns `known`, the sorted values met so
    far, with the block's own, and the block's count of each: by exact
    binary search, after adding the run heads of a block with new values."""
    flat = block.reshape(-1)
    flat.sort()
    count = flat.searchsorted(known, "right") - flat.searchsorted(known)
    if count.sum() < flat.size:
        heads = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
        both = np.sort(np.concatenate((known, heads)))
        known = both[np.concatenate(([True], both[1:] != both[:-1]))]
        count = flat.searchsorted(known, "right") - flat.searchsorted(known)
    return known, count


def correlation_distribution(family, workers=1):
    """Histogram of correlations over all member pairs and all shifts.

    Decimation by 2 maps every member onto a member up to rotation, and
    the map permutes the family; both are checked from the bits on every
    call. Since Corr(a', b', tau) = Corr(a, b, 2 tau) for decimated members,
    a pair has the same histogram over all shifts as its image pair, so an
    orbit of w members contributes w times the pairs its representative
    leads. Swapping a pair only reverses the shifts, so the representative
    is swept against its own orbit with weight w and against every later
    orbit with weight 2w, all shifts in one circulant product per orbit.
    The largest orbits come first, which leaves the fewest later rows.

    Each product column holds D shifts (`_shifts_per_column`): with r the
    representative's signs and M = L + 1, column c of the circulant is
    sum_j M^j r[i + D c + j], read against the members' half signs. An
    offset of L/2 per digit, added after the product, makes digit j the
    agreement count (Corr + L)/2 in [0, L] at shift D c + j. Pad digits,
    past shift L - 1 where D does not divide L, have no entries and no
    offset: each reads 0 once per ordered pair, taken back off bin 0.

    The family's packed rows are taken in orbit order and swept tile by
    tile, `_tile_rows` members each, on at most `workers` threads in one
    pool. In every tile, thread t takes the representatives t, t + T, ...
    (T threads) whose first row lies before the tile's end, unpacks the
    tile to signs of its own and sweeps the tile's rows from each one's
    first row on, counting the product by value (`_value_counts`), its
    own orbit's rows (weight w) apart from later rows (2w); the family's
    correlations take few values. Per thread: one tile of signs, one
    circulant, one tile's product and the keys met so far across its
    tiles, each with an int64 count.
    """
    count, L = family.size, family.params.q - 1
    orbit, sizes = _decimation_orbits(family.rows, L)
    packed = family.rows[np.argsort(orbit, kind="stable")]
    starts = np.cumsum([0] + sizes)
    D, M = _shifts_per_column(L), L + 1
    columns = -(-L // D)
    rows = min(count, _tile_rows(L))
    powers = (M ** np.arange(D)).astype(np.float32)
    # L/2 for each digit j of column c below shift L, at D c + j.
    offset = (np.arange(columns * D).reshape(-1, D) < L) @ powers * (L / 2)
    # M^j times the sign 1 - 2b of bit b, and the bits twice over.
    weighted = powers[:, None] * np.float32([1, -1])
    wrap = np.arange(2 * L - 1) % L
    threads = _thread_count(workers, len(sizes))

    def work(t):
        # One tile of members, each bit b as the half sign (1 - 2b)/2.
        signs = np.empty((rows, L), dtype=np.float32)
        circ = np.empty((columns, L), dtype=np.float32)
        prod = np.empty((rows, columns), dtype=np.float32)
        known, totals = np.empty(0, np.float32), np.zeros(0, np.int64)
        # windows[j, tau] is M^j r[i + tau], r the rep's signs mod L.
        line = np.empty((D, 2 * L - 1), dtype=np.float32)
        windows = sliding_window_view(line, L, axis=1)
        for lo in range(0, count, rows):
            hi = min(lo + rows, count)
            # The orbits whose first row lies before hi, dealt out in
            # turn: the earlier ones sweep more rows.
            reps = range(t, int(np.searchsorted(starts, hi)), threads)
            if reps:
                np.subtract(0.5, _unpacked(packed[lo:hi], L),
                            out=signs[:hi - lo], dtype=np.float32)
            for a in reps:
                first, w = starts[a], sizes[a]
                weighted.take(_unpacked(packed[first], L)[wrap], axis=1,
                              out=line)
                circ[...] = windows[0, ::D]
                for j in range(1, D):
                    circ[:len(windows[j, j::D])] += windows[j, j::D]
                top = max(lo, first)
                out = np.matmul(signs[top - lo:hi - lo], circ.T,
                                out=prod[:hi - top])
                out += offset
                own = min(max(first + w - top, 0), hi - top)
                for part, weight in ((out[:own], w), (out[own:], 2 * w)):
                    seen, times = _value_counts(part, known)
                    if len(seen) > len(known):
                        grown = np.zeros(len(seen), dtype=np.int64)
                        grown[seen.searchsorted(known)] = totals
                        known, totals = seen, grown
                    totals += weight * times
        tally = np.zeros(M, dtype=np.int64)
        digits = known.astype(np.int64)[:, None] // M ** np.arange(D) % M
        np.add.at(tally, digits, totals[:, None])
        return tally

    if threads == 1:
        acc = work(0)
    else:
        # Imported only here: it loads concurrent.futures and logging,
        # which a run that opens no pool need not pay for at start-up.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            acc = sum(pool.map(work, range(threads)))
    acc[0] -= (columns * D - L) * count * count
    dist = ValueDistribution.from_counts(zip(range(-L, M, 2), acc))
    if dist.total != count * count * L:
        raise VerificationError(f"correlation sweep covered {dist.total} triples")
    return dist


def _t_zero_alpha_count(params, kappa):
    """Number of beta with T(0, beta) = kappa + 1, as a Fraction."""
    q, m, d = params.q, params.m, params.d
    if kappa == q - 1:
        return Fraction(1)
    if params.case == "EvenK" and kappa == -1:
        return Fraction(q - 1)
    if params.case == "EvenM":
        if kappa == (1 << m) - 1:
            return Fraction((1 << d) * (q - 1), (1 << d) + 1)
        if kappa == -(1 << (m + d)) - 1:
            return Fraction(q - 1, (1 << d) + 1)
    return Fraction(0)


def _bare_norm_quad_count(params, kappa):
    """Shift counts for the single no-linear-term sequence against itself."""
    if kappa == params.q - 1:
        return Fraction(1)
    if kappa == -(1 << params.m) - 1:
        return Fraction((1 << params.m) - 2)
    return Fraction(0)


def correlation_distribution_formula(params):
    """Exact correlation histogram composed from the sum distributions.

    Pair blocks are counted separately (both members with linear term, one
    with, none, and the bare quadratic member when present) and each block's
    shift sweep is an exact cover of sum parameters, so every count is an
    integer combination of the closed-form multiplicities. Notes carry the
    comparison against the literally tabulated rows.
    """
    t_dist, s_dist = t_spectrum_formula(params), s_spectrum_formula(params)
    q, m, case = params.q, params.m, params.case
    L = q - 1
    kappas = sorted({v - 1 for v in s_dist.values})
    counts = {}
    for kappa in kappas:
        sk = Fraction(s_dist.count(kappa + 1))
        tk = Fraction(t_dist.count(kappa + 1))
        t0k = _t_zero_alpha_count(params, kappa)
        lk = _bare_norm_quad_count(params, kappa)
        total = Fraction(1 << (3 * m)) * ((q - 2) * sk + tk) / (q - 1)
        if case in ("EvenM", "EvenK"):
            m12 = Fraction((1 << m) - 1) * (sk - tk)
            m22 = (Fraction((1 << m) - 2) * (q - 2) * tk / (q - 1)
                   + Fraction(q - 2) * t0k / (q - 1)
                   + lk / ((1 << m) + 1))
            total += 2 * m12 + m22
        if case == "EvenK":
            m13 = sk - tk
            m23 = (Fraction(q - 2) * (tk - t0k) / (q - 1)
                   + (Fraction(1, (1 << m) + 1)
                      if kappa == -(1 << m) - 1 else Fraction(0)))
            m33 = Fraction((q - 2) if kappa == -1 else 0) + (
                Fraction(1) if kappa == q - 1 else Fraction(0))
            total += 2 * m13 + 2 * m23 + m33
        counts[kappa] = _exact(total)
    dist = ValueDistribution.from_counts(counts)
    expected_total = family_size(params) ** 2 * L
    if dist.total != expected_total:
        raise VerificationError(
            f"composed correlation counts total {dist.total}, "
            f"expected {expected_total}")
    return dist.with_notes(_reconcile_printed(params, dist))


def correlation_table_printed(params):
    """The tabulated histogram rows, evaluated literally: (value, Fraction)."""
    n, m, d = params.n, params.m, params.d
    p = _p2
    if params.case == "EvenM":
        den = p(2 * d) - 1
        rows = [
            ((1 << m) - 1,
             (p(4 * n + 2 * d - 1) - p(4 * n + d - 1) - p(4 * n - 1)
              + p(7 * m + 2 * d - 1) - p(7 * m + d - 1) + p(3 * n + 2 * d - 1)
              - p(5 * m + 2 * d) + p(5 * m + d) + p(5 * m)
              - p(2 * n + 2 * d + 1) + p(2 * n + d + 1) + p(2 * n)
              - p(3 * m + 2 * d) - p(3 * m) + p(n + 2 * d) - p(n + d + 1)
              + p(m + 2 * d + 1) - p(m + d) - p(2 * d) + p(d)) / den),
            (-(1 << m) - 1,
             (p(4 * n + 2 * d - 1) - p(4 * n + d - 1) - p(4 * n - 1)
              - p(7 * m + 2 * d - 1) + p(7 * m + d - 1) + p(7 * m)
              + p(3 * n + 2 * d - 1) - p(3 * n) - p(5 * m + 2 * d + 1)
              + p(5 * m + d) + p(5 * m + 1) + p(2 * n + 2 * d) - p(2 * n + 1)
              - p(3 * m + d + 1) + p(n + 2 * d) + p(n + d) + p(n) - p(m)
              - p(2 * d) + p(d) + 2) / den),
            ((1 << (m + d)) - 1,
             p(m - d) * (p(m - d) + 1) * (p(m + d) - 1)
             * (p(5 * m - 1) - p(n) - p(m) + 1) / den),
            (-(1 << (m + d)) - 1,
             (p(4 * n - d - 1) - p(7 * m - 1) - p(7 * m - 2 * d - 1)
              + p(3 * n - d - 1) - p(5 * m - d) + p(2 * n) - p(2 * n - d)
              + p(2 * n - 2 * d) + p(3 * m) + p(3 * m - 2 * d) + p(n + d)
              - p(n + 1) - p(n - d) - p(n - 2 * d) + 3 * p(m - d)
              - p(d + 1)) / den),
            (-1,
             p(4 * n - d) - p(7 * m - 2 * d) + p(5 * m) - p(5 * m - d + 1)
             - p(2 * n - d + 1) + p(2 * n - 2 * d + 1) + p(3 * m - d + 1)
             + p(3 * m - 2 * d + 1) - p(n + 1) - p(n - 2 * d + 1) - p(m + 1)
             + p(m - d + 1) + 2),
            ((1 << n) - 1, p(3 * m) + p(m) - 1),
        ]
    elif params.case == "EvenK":
        den = p(2 * d) - 1
        rows = [
            ((1 << m) - 1,
             (p(4 * n + 2 * d - 1) - p(4 * n + d - 1) - p(4 * n - 1)
              + p(7 * m + 2 * d - 1) - p(7 * m + d - 1) + p(3 * n + 2 * d - 1)
              - p(2 * n + 2 * d) + p(2 * n + d) + p(2 * n) - p(3 * m + 2 * d)
              + p(3 * m + d) - p(n + 2 * d)) / den),
            (-(1 << m) - 1,
             (p(4 * n + 2 * d - 1) - p(4 * n + d - 1) - p(4 * n - 1)
              - p(7 * m + 2 * d - 1) + p(7 * m + d - 1) + p(7 * m)
              + p(3 * n + 2 * d - 1) - p(3 * n) - p(5 * m + 2 * d) + p(5 * m)
              + p(2 * n + d) - p(3 * m + d) - p(3 * m) + p(n) + p(m + 2 * d)
              - p(m)) / den),
            ((1 << (m + d)) - 1,
             p(n - d) * (p(m - d) + 1) * (p(m + d) - 1)
             * (p(2 * n - 1) - 1) / den),
            (-(1 << (m + d)) - 1,
             p(n - d) * (p(m - d) - 1) * (p(m + d) - 1)
             * (p(2 * n - 1) - 1) / den),
            (-1,
             p(4 * n - d) - p(7 * m - 2 * d) + p(5 * m) - p(2 * n - d + 1)
             + p(3 * m - 2 * d + 1) - p(m + 1)),
            ((1 << n) - 1, p(3 * m) + p(m)),
        ]
    else:
        e2, xi2 = _eps2(params), _xi2(params)
        bsum, den = _b_sum(params), _den2(params)
        rows = [
            (1 << m, p(2 * n + 3 * d - 1) * (p(n) - 2) * e2 / den),
            (-(1 << m),
             p(3 * m + 3 * d) * (p(3 * m - 1) - p(n) + 1) * e2 / den),
            (1 << (m + d),
             p(3 * m) * (p(2 * n - d - 1) + p(3 * m - 1) - p(n - d) - p(m)
                         + p(d)) * bsum / (p(d) + 1) ** 2),
            (-(1 << (m + d)),
             p(2 * n - 1) * (p(m - d) - 1) * (p(n) - 2) * bsum
             / (p(d) + 1) ** 2),
            (1 << (m + 2 * d),
             p(2 * n - 2 * d - 1) * (p(m - 2 * d) + 1) * (p(m - d) - 1)
             * (p(n) - 2) / den),
            (-(1 << (m + 2 * d)),
             p(3 * m) * (p(m - d) - 1)
             * (p(2 * n - 2 * d - 1) - p(3 * m - 2 * d - 1) - p(n - 2 * d)
                + p(m - 2 * d) + 1) / den),
            (0, p(3 * m) * (p(n) - 2) * xi2),
            (1 << m, p(3 * m)),
        ]
    return tuple(rows)


def _reconcile_printed(params, composed):
    """Compare the literal table rows against the composed histogram.

    Returns note strings describing every discrepancy: a constant offset
    between tabulated values and true correlations, rows whose multiplicity
    disagrees, duplicated values, rows that are not integers, and totals that
    do not cover |family|^2 (2^n - 1). Empty means the table matches as
    printed.
    """
    printed = correlation_table_printed(params)
    notes = []
    best_shift, best_score = 0, -1
    for shift in (0, -1):
        score = sum(1 for v, c in printed
                    if c.denominator == 1 and composed.count(v + shift) == c)
        if score > best_score:
            best_shift, best_score = shift, score
    if best_shift:
        notes.append(
            "tabulated values match derived counts only after subtracting 1 "
            "(kappa = tabulated value - 1); offset applied for comparison")
    seen = set()
    m, d = params.m, params.d
    for v, c in printed:
        kappa = v + best_shift
        if c.denominator != 1 or c < 0:
            note = (f"tabulated multiplicity at value {v} is not a "
                    f"natural number: {c}")
            deficit = composed.count(kappa) - c
            pattern = Fraction(
                (1 << (m + 2 * d)) - (1 << (m + d)) - (1 << (m + 1)),
                (1 << (2 * d)) - 1)
            if deficit == pattern:
                note += ("; its deficit against the derived count equals "
                         "(2^(m+2d) - 2^(m+d) - 2^(m+1))/(2^(2d) - 1), an "
                         "expression that vanishes only at d = 1")
            notes.append(note)
            continue
        ci = int(c)
        if kappa in seen:
            note = (f"tabulated value {v} appears twice under the applied "
                    f"offset")
            if composed.count(params.q - 1) == ci:
                note += (f"; its multiplicity {ci} equals the derived count "
                         f"at {params.q - 1}, the likely intended value")
            notes.append(note)
            continue
        seen.add(kappa)
        derived = composed.count(kappa)
        if ci != derived:
            notes.append(f"tabulated multiplicity {ci} at kappa={kappa} "
                         f"disagrees with derived {derived}")
    printed_total = sum(c for _, c in printed)
    expected = family_size(params) ** 2 * (params.q - 1)
    if printed_total != expected:
        notes.append(f"tabulated multiplicities total {printed_total}, "
                     f"expected {expected}")
    covered = {v + best_shift for v, _ in printed}
    for kappa, cnt in composed.entries:
        if kappa not in covered:
            notes.append(f"derived kappa={kappa} (count {cnt}) has no "
                         f"tabulated row")
    return tuple(notes)


def family_dump_lines(family):
    """label,hex rows in build order."""
    return [f"{family.label(i)},{row.tobytes().hex()}"
            for i, row in enumerate(family.rows)]

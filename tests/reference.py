"""Schoolbook reference implementations used to freeze golden test values.

Everything here up to `correlation_naive` is deliberately naive: carry-less
polynomial arithmetic on int bit masks, repeated-squaring powers, power-sum
traces, direct summation. No exp/log tables, no numpy, no imports from the
package under test. Slow but obvious; the test suite trusts this file over
everything else. The rest keep, in numpy, sweeps the package once ran, as
oracles at sizes the naive sweeps cannot reach.
`check_inequivalence` rotates every family member as a Python int, as the
package once did to find repeated rotations, which it now reads off the
count of the correlation value 2^n - 1.
`correlation_rep_major` keeps the decimation-orbit correlation kernel in
its representative-major form, on the layout the package once used (two
shifts to a column over a ones column, the last pairing shift L - 1 with
a sentinel slot); it imports nothing from the package, and takes the
orbits as given. `decimation_orbits_per_row` finds those orbits
one packed row at a time, as the package once did, and imports nothing
from it either. `kernel_dims`, `gamma_sweep` and
`artin_schreier_sweep` run over every pair, or every curve, without the
x -> pi x orbit rule the package applies (the first two against every
beta of the alphas they are given, by default the whole subfield; alpha =
0 and 1 is the sweep the package ran before the rule's beta orbits):
they read the package's field tables, per-pair kernel validator, trace
rows and Walsh transform, each checked against the naive functions above
by the tests. `popcount_sweep` is the T and S sweep over every alpha row
and every beta, without the stabilizer orbits, S counted at gamma = 0 and
q - 1 times at gamma = 1 as the package once did before its Walsh sweep;
it counts the bits of each row on its own, with none of the package's
kernels.
`orbit_closure` (through `row_closure`) and `gamma_axis` are the O(q^2)
full-table proofs of the x -> pi x law that the package's O(q) orbit lemma
replaced. `trace_bit_matrix` gathers trace rows from the rotations of the
m-sequence Tr(pi^t), as the package once built them, the sequence taken by
the schoolbook `trace_rel`: an oracle for the rows the package builds from
their definitions.
"""

from collections import Counter
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from kasamilab import VerificationError, expsum, linearized
from kasamilab.field import (_gf2_linear, _mul, power_table, rel_trace_table,
                             subfield_elements)

__all__ = [
    "gf2_mul", "gf2_pow", "trace_rel", "smallest_primitive", "subfield",
    "t_value", "s_value", "t_spectrum_naive", "s_spectrum_naive",
    "gamma_sweep_naive", "kernel_count_naive", "kernel_profile_naive",
    "psi_roots_naive", "bluher_naive", "as_points_naive", "min_poly_naive",
    "codeword_bits_c1", "codeword_bits_c2", "family_naive", "correlation_naive",
    "check_inequivalence",
    "correlation_rep_major", "decimation_orbits_per_row", "kernel_dims",
    "gamma_sweep", "artin_schreier_sweep", "popcount_sweep", "row_closure",
    "orbit_closure", "gamma_axis", "trace_bit_matrix",
]


def gf2_mul(a, b, modulus, n):
    """Product of two field elements modulo the degree-n modulus."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> n) & 1:
            a ^= modulus
    return r


def gf2_pow(a, e, modulus, n):
    """a**e by repeated squaring, e >= 0."""
    r = 1
    while e:
        if e & 1:
            r = gf2_mul(r, a, modulus, n)
        a = gf2_mul(a, a, modulus, n)
        e >>= 1
    return r


def trace_rel(x, i, j, modulus, n):
    """Relative trace sum_{t < j//i} x**(2**(i*t)). Absolute trace when i=1, j=n."""
    acc = 0
    y = x
    for _ in range(j // i):
        acc ^= y
        for _ in range(i):
            y = gf2_mul(y, y, modulus, n)
    return acc


def smallest_primitive(n):
    """Smallest (n+1)-bit modulus whose residue class of x has order 2**n - 1.

    The multiplicative walk doubles as an irreducibility test: for any modulus
    with nonzero constant term that is reducible, the unit group is strictly
    smaller than 2**n - 1, so the order of x can never reach it.
    """
    q = 1 << n
    for mask in range(q | 1, q << 1, 2):
        y = 2
        order = 1
        while y != 1 and order <= q:
            y = gf2_mul(y, 2, mask, n)
            order += 1
        if y == 1 and order == q - 1:
            return mask
    raise ValueError(f"no primitive modulus of degree {n}")


def subfield(m, modulus, n):
    """GF(2**m) inside GF(2**n): 0 first, then consecutive powers of pi**step."""
    q1 = (1 << n) - 1
    step = q1 // ((1 << m) - 1)
    g = gf2_pow(2, step, modulus, n)
    elems = [0]
    y = 1
    for _ in range((1 << m) - 1):
        elems.append(y)
        y = gf2_mul(y, g, modulus, n)
    return elems


def _tables(k, modulus, n):
    m = n // 2
    q = 1 << n
    u = [gf2_pow(x, (1 << m) + 1, modulus, n) for x in range(q)]
    v = [gf2_pow(x, (1 << k) + 1, modulus, n) for x in range(q)]
    trn = [trace_rel(x, 1, n, modulus, n) for x in range(q)]
    tr1m = {y: trace_rel(y, 1, m, modulus, n) for y in subfield(m, modulus, n)}
    return m, q, u, v, trn, tr1m


def t_value(alpha, beta, k, modulus, n):
    """Direct sum of (-1)**(Tr_m(alpha*x^(2^m+1)) + Tr_n(beta*x^(2^k+1)))."""
    _, q, u, v, trn, tr1m = _tables(k, modulus, n)
    total = 0
    for x in range(q):
        bit = tr1m[gf2_mul(alpha, u[x], modulus, n)] ^ trn[gf2_mul(beta, v[x], modulus, n)]
        total += 1 - 2 * bit
    return total


def s_value(alpha, beta, gamma, k, modulus, n):
    """Same as t_value with the extra linear term Tr_n(gamma*x)."""
    _, q, u, v, trn, tr1m = _tables(k, modulus, n)
    total = 0
    for x in range(q):
        bit = (tr1m[gf2_mul(alpha, u[x], modulus, n)]
               ^ trn[gf2_mul(beta, v[x], modulus, n)]
               ^ trn[gf2_mul(gamma, x, modulus, n)])
        total += 1 - 2 * bit
    return total


def t_spectrum_naive(k, modulus, n):
    """Counter of T values over all (alpha, beta) in GF(2^m) x GF(2^n)."""
    m, q, u, v, trn, tr1m = _tables(k, modulus, n)
    out = Counter()
    for alpha in subfield(m, modulus, n):
        au = [tr1m[gf2_mul(alpha, u[x], modulus, n)] for x in range(q)]
        for beta in range(q):
            t = 0
            for x in range(q):
                t += 1 - 2 * (au[x] ^ trn[gf2_mul(beta, v[x], modulus, n)])
            out[t] += 1
    return out


def s_spectrum_naive(k, modulus, n):
    """Counter of S values over all (alpha, beta, gamma). Feasible for n <= 6."""
    m, q, u, v, trn, tr1m = _tables(k, modulus, n)
    trg = [[trn[gf2_mul(g, x, modulus, n)] for x in range(q)] for g in range(q)]
    out = Counter()
    for alpha in subfield(m, modulus, n):
        au = [tr1m[gf2_mul(alpha, u[x], modulus, n)] for x in range(q)]
        for beta in range(q):
            base = [au[x] ^ trn[gf2_mul(beta, v[x], modulus, n)] for x in range(q)]
            for g in range(q):
                row = trg[g]
                s = 0
                for x in range(q):
                    s += 1 - 2 * (base[x] ^ row[x])
                out[s] += 1
    return out


def gamma_sweep_naive(alpha, beta, k, modulus, n):
    """Counter of S(alpha, beta, gamma) over gamma for one fixed pair."""
    m, q, u, v, trn, tr1m = _tables(k, modulus, n)
    base = [tr1m[gf2_mul(alpha, u[x], modulus, n)]
            ^ trn[gf2_mul(beta, v[x], modulus, n)] for x in range(q)]
    out = Counter()
    for g in range(q):
        s = 0
        for x in range(q):
            s += 1 - 2 * (base[x] ^ trn[gf2_mul(g, x, modulus, n)])
        out[s] += 1
    return out


def kernel_count_naive(alpha, beta, k, modulus, n):
    """Number of zeros of alpha*x^(2^m) + beta*x^(2^k) + beta^(2^(n-k))*x^(2^(n-k))."""
    m = n // 2
    q = 1 << n
    bnk = gf2_pow(beta, 1 << (n - k), modulus, n)
    cnt = 0
    for x in range(q):
        val = (gf2_mul(alpha, gf2_pow(x, 1 << m, modulus, n), modulus, n)
               ^ gf2_mul(beta, gf2_pow(x, 1 << k, modulus, n), modulus, n)
               ^ gf2_mul(bnk, gf2_pow(x, 1 << (n - k), modulus, n), modulus, n))
        cnt += val == 0
    return cnt


def kernel_profile_naive(k, modulus, n):
    """Counter of kernel sizes over all (alpha, beta) != (0, 0)."""
    m = n // 2
    q = 1 << n
    out = Counter()
    for alpha in subfield(m, modulus, n):
        for beta in range(q):
            if alpha == 0 and beta == 0:
                continue
            out[kernel_count_naive(alpha, beta, k, modulus, n)] += 1
    return out


def psi_roots_naive(alpha, beta, k, modulus, n):
    """Zeros in GF(2^n) of beta^(2^(n-k)) * z^(2^j+1) + alpha*z + beta, j=(m-k) mod n."""
    m = n // 2
    q = 1 << n
    j = (m - k) % n
    bnk = gf2_pow(beta, 1 << (n - k), modulus, n)
    cnt = 0
    for z in range(q):
        val = (gf2_mul(bnk, gf2_pow(z, (1 << j) + 1, modulus, n), modulus, n)
               ^ gf2_mul(alpha, z, modulus, n) ^ beta)
        cnt += val == 0
    return cnt


def bluher_naive(b, h, modulus, l):
    """Zeros in GF(2^l)* of z^(2^h+1) + b*z + b."""
    cnt = 0
    for z in range(1, 1 << l):
        val = gf2_pow(z, (1 << h) + 1, modulus, l) ^ gf2_mul(b, z, modulus, l) ^ b
        cnt += val == 0
    return cnt


def as_points_naive(alpha_p, beta, k, d, modulus, n):
    """Pairs (x, y) with alpha_p*x^(2^m+1) + beta*x^(2^k+1) = y^(2^d) + y."""
    m = n // 2
    q = 1 << n
    lhs = Counter()
    for y in range(q):
        lhs[gf2_pow(y, 1 << d, modulus, n) ^ y] += 1
    cnt = 0
    for x in range(q):
        f = (gf2_mul(alpha_p, gf2_pow(x, (1 << m) + 1, modulus, n), modulus, n)
             ^ gf2_mul(beta, gf2_pow(x, (1 << k) + 1, modulus, n), modulus, n))
        cnt += lhs[f]
    return cnt


def min_poly_naive(e, modulus, n):
    """Minimal polynomial of pi**e over GF(2), returned as a bit mask."""
    q1 = (1 << n) - 1
    e %= q1
    coset = []
    c = e
    while c not in coset:
        coset.append(c)
        c = (c * 2) % q1
    poly = [1]
    for c in coset:
        root = gf2_pow(2, c, modulus, n)
        new = [0] * (len(poly) + 1)
        for i, co in enumerate(poly):
            new[i + 1] ^= co
            new[i] ^= gf2_mul(co, root, modulus, n)
        poly = new
    assert all(co in (0, 1) for co in poly), "coset product left the prime field"
    mask = 0
    for i, co in enumerate(poly):
        mask |= co << i
    return mask


def codeword_bits_c1(alpha, beta, k, modulus, n):
    """Bit lambda of the length 2^n-1 word: Tr_m(alpha*pi^(lam*e1)) + Tr_n(beta*pi^(lam*e2))."""
    m = n // 2
    L = (1 << n) - 1
    e1, e2 = (1 << m) + 1, (1 << k) + 1
    pw = [gf2_pow(2, lam, modulus, n) for lam in range(L)]
    tr1m = {y: trace_rel(y, 1, m, modulus, n) for y in subfield(m, modulus, n)}
    return tuple(
        tr1m[gf2_mul(alpha, pw[(lam * e1) % L], modulus, n)]
        ^ trace_rel(gf2_mul(beta, pw[(lam * e2) % L], modulus, n), 1, n, modulus, n)
        for lam in range(L))


def codeword_bits_c2(alpha, beta, gamma, k, modulus, n):
    """codeword_bits_c1 plus the Tr_n(gamma*pi^lam) term."""
    L = (1 << n) - 1
    pw = [gf2_pow(2, lam, modulus, n) for lam in range(L)]
    base = codeword_bits_c1(alpha, beta, k, modulus, n)
    return tuple(
        base[lam] ^ trace_rel(gf2_mul(gamma, pw[lam], modulus, n), 1, n, modulus, n)
        for lam in range(L))


def family_naive(k, modulus, n):
    """All family sequences as (label, bits) with bit lambda = a(pi^lambda)."""
    m = n // 2
    q = 1 << n
    L = q - 1
    d = gcd(m, k)
    e1, e2 = (1 << m) + 1, (1 << k) + 1
    pw = [gf2_pow(2, lam, modulus, n) for lam in range(L)]
    trn = [trace_rel(x, 1, n, modulus, n) for x in range(q)]
    sub = subfield(m, modulus, n)
    tr1m = {y: trace_rel(y, 1, m, modulus, n) for y in sub}
    seqs = []
    for alpha in sub:
        for beta in range(q):
            bits = tuple(
                tr1m[gf2_mul(alpha, pw[(lam * e1) % L], modulus, n)]
                ^ trn[gf2_mul(beta, pw[(lam * e2) % L], modulus, n) ^ pw[lam]]
                for lam in range(L))
            seqs.append((f"F1({alpha},{beta})", bits))
    if (m // d) % 2 == 0 or (k // d) % 2 == 0:
        for i in range((1 << m) - 1):
            beta = pw[i]
            bits = tuple(
                tr1m[pw[(lam * e1) % L]]
                ^ trn[gf2_mul(beta, pw[(lam * e2) % L], modulus, n)]
                for lam in range(L))
            seqs.append((f"F2({beta})", bits))
    if (k // d) % 2 == 0:
        bits = tuple(trn[pw[(lam * e2) % L]] for lam in range(L))
        seqs.append(("F3", bits))
    return seqs


def correlation_naive(a_bits, b_bits, tau):
    """Periodic cross-correlation of two equal-length bit tuples at shift tau."""
    L = len(a_bits)
    return sum(1 - 2 * (a_bits[lam] ^ b_bits[(lam + tau) % L]) for lam in range(L))


def check_inequivalence(family):
    """True iff every member of the family has full period and no two are
    cyclic shifts of each other: every rotation of every packed member row,
    as a Python int."""
    L = family.params.q - 1
    mask = (1 << L) - 1
    words = [int.from_bytes(row.tobytes(), "little") for row in family.rows]
    turns = [{((v >> r) | (v << (L - r))) & mask for r in range(L)}
             for v in words]
    return (all(len(t) == L for t in turns)
            and len({min(t) for t in turns}) == len(words))


def correlation_rep_major(bits, orbit, sizes, rows, dtype=np.float64):
    """Correlation histogram {value: count} of the members' bits (one row
    each) over all pairs and shifts, one representative per decimation orbit
    (orbit[i] is row i's orbit, numbered as sizes) at a time, the product
    in dtype.

    The representative of an orbit of w members is swept against its own
    orbit with weight w and every later orbit with weight 2w, in tiles of
    rows members, its own orbit in its first tile (rows >= max(sizes)).
    Each column of the product against the halved circulant packs the
    agreement counts a, a' in [0, L] of shifts tau and tau + 1 as the
    bincount index a + (L + 1) a'; the last column pairs shift L - 1 with a
    sentinel that reads L + 1 and is dropped.
    """
    count, L = bits.shape
    M = L + 1
    starts = np.cumsum([0] + list(sizes))
    bins = M * (M + 1)
    signs = np.ones((count, L + 1), dtype=dtype)
    signs[:, :L] -= 2 * bits[np.argsort(orbit, kind="stable")]
    hist = np.zeros(bins, dtype=np.int64)
    packed = np.empty((L + 1, M // 2), dtype=dtype)
    packed[L] = L * (M + 1) / 2
    packed[L, -1] = L / 2 + M * M
    for first, w in zip(starts.tolist(), sizes):
        twice = np.tile(signs[first, :L], 2)
        c = (twice[:-1] + M * twice[1:]) / 2
        packed[:L] = sliding_window_view(c, L)[::2].T
        packed[:L, -1] = twice[L - 1:-1] / 2
        for lo in range(first, count, rows):
            tile = (signs[lo:lo + rows] @ packed).astype(np.intp)
            if lo == first:
                hist += w * np.bincount(tile[:w].ravel(), minlength=bins)
                tile = tile[w:]
            hist += 2 * w * np.bincount(tile.ravel(), minlength=bins)
    hist = hist.reshape(M + 1, M)
    acc = hist.sum(0) + hist[:M].sum(1)
    return {2 * a - L: int(c) for a, c in enumerate(acc) if c}


def decimation_orbits_per_row(packed, L):
    """Orbit id of each row and size of each orbit under decimation by 2 up
    to rotation, the orbits numbered largest first, then by least row.

    The rows hold L bits packed eight to a byte in numpy's bitorder
    "little". Each row is unpacked, decimated and looked up on its own, at
    rotation 0 first; each image must be a row, and following the images
    from any row must come back to it.
    """
    index = {row.tobytes(): i for i, row in enumerate(packed)}
    decimation = 2 * np.arange(L) % L
    image = []
    for i, row in enumerate(packed):
        bits = np.unpackbits(row, count=L, bitorder="little")[decimation]
        twice = np.tile(bits, 2)
        for r in range(L):
            j = index.get(np.packbits(twice[r:r + L], bitorder="little")
                          .tobytes())
            if j is not None:
                image.append(j)
                break
        else:
            raise ValueError(f"the decimation of row {i} is no row up to "
                             f"rotation")
    least = []
    for i, j in enumerate(image):
        low = i
        for _ in image:
            if j == i:
                break
            low, j = min(low, j), image[j]
        else:
            raise ValueError(f"row {i} lies on no cycle of the images")
        least.append(low)
    sizes = Counter(least)
    order = sorted(sizes, key=lambda low: (-sizes[low], low))
    ids = {low: o for o, low in enumerate(order)}
    return [ids[low] for low in least], [sizes[low] for low in order]


def kernel_dims(ctx, params, alphas=None):
    """Kernel dimension over GF(q0) of phi_{alpha,beta} for every beta: one
    row per alpha, by default every alpha of `subfield_elements` in its
    order (the full table), one column per beta, the betas in blocks."""
    if alphas is None:
        alphas = subfield_elements(ctx, params.m)
    return np.array([np.concatenate([
        linearized._kernel_dims(ctx, params, alpha, block)
        for (block,) in expsum._blocks(ctx.q, np.arange(ctx.q))])
        for alpha in alphas])


def gamma_sweep(ctx, params, dims, alphas=None):
    """(alpha, beta, rank) of the first pair of each alpha whose S over
    gamma, its Walsh transform, is not the gamma-sweep law of its rank
    s - dims[i, beta], dims the `kernel_dims` table of the same alphas
    (by default every alpha of `subfield_elements`), against every beta
    in blocks; (0, 0) is left out."""
    if alphas is None:
        alphas = subfield_elements(ctx, params.m)
    laws = {rank: expsum.gamma_sweep_formula(params, rank).as_dict()
            for rank in range(0, params.s + 1, 2)}
    arows = expsum._trace_rows(ctx, params, alphas, [], [])[0]
    off = []
    for i, alpha in enumerate(alphas):
        for (block,) in expsum._blocks(ctx.q, np.arange(ctx.q)):
            walsh = expsum._walsh(
                arows[i] ^ expsum._trace_rows(ctx, params, [], block, [])[1])
            ranks = params.s - dims[i, block]
            lawful = np.isin(ranks, list(laws))
            for rank, law in laws.items():
                rows = ranks == rank
                for value, count in law.items():
                    lawful[rows] &= (walsh[rows] == value).sum(axis=1) == count
            bad = np.flatnonzero(~lawful & ((block != 0) | (alpha != 0)))
            if bad.size:
                off.append((alpha, int(block[bad[0]]), int(ranks[bad[0]])))
                break
    return off


def artin_schreier_sweep(ctx, params):
    """(a', beta, points, identity) of every curve off q + (2^d - 1) T, T
    the Walsh transform at gamma = 0 of the pair (Tr^n_m(a'), beta), alpha
    by alpha: every a' of trace alpha against every beta, (0, 0) left out.
    The x side is x (a' x^(2^m)) + x (beta x^(2^k)) over every x."""
    q, x = ctx.q, np.arange(ctx.q)
    hist = np.bincount(power_table(ctx, 1 << params.d) ^ x, minlength=q)
    bvals = _mul(ctx, x, _mul(ctx, x[:, None],
                              power_table(ctx, 1 << params.k)))
    traces = rel_trace_table(ctx, params.m, params.n)
    alphas = subfield_elements(ctx, params.m)
    arows, brows, _ = expsum._trace_rows(ctx, params, alphas, x, [])
    off = []
    for i, alpha in enumerate(alphas):
        t = expsum._walsh(arows[i] ^ brows)[:, 0].astype(np.int64)
        want = q + ((1 << params.d) - 1) * t
        for a in np.flatnonzero(traces == alpha).tolist():
            avals = _mul(ctx, x, _mul(ctx, a, power_table(ctx, 1 << params.m)))
            got = hist[avals ^ bvals].sum(axis=1)
            off += [(a, b, int(got[b]), int(want[b]))
                    for b in np.flatnonzero(got != want).tolist() if a or b]
    return off


def popcount_sweep(ctx, params, linear=False):
    """{value: count} of T over every (alpha, beta), from the number of
    nonzero bits of every alpha row XOR every beta row; with `linear`, of
    S, adding q - 1 times the sweep of every alpha row XOR Tr_n(x). The beta
    rows are built a block at a time."""
    q = ctx.q
    arows, _, grow = expsum._trace_rows(
        ctx, params, subfield_elements(ctx, params.m), [], [1])
    sweeps = [(arows, 1)] + ([(arows ^ grow, q - 1)] if linear else [])
    weights = np.zeros(q + 1, dtype=np.int64)
    for (block,) in expsum._blocks(q, np.arange(q)):
        brows = expsum._trace_rows(ctx, params, [], block, [])[1]
        for rows, times in sweeps:
            for row in rows:
                weights += times * np.bincount(
                    np.count_nonzero(row ^ brows, axis=1), minlength=q + 1)
    return {q - 2 * w: c for w, c in enumerate(weights.tolist()) if c}


def row_closure(build, coeffs, images, perm, name):
    """Raise unless reading at the permutation perm (x -> pi x, as x ->
    perm[x] in mask order) carries the row build(c) of coeffs[i] onto that
    of images[i], the rows built in blocks and compared in place of the
    rows read at perm."""
    q = len(perm)
    if (np.sort(perm) != np.arange(q)).any():
        raise VerificationError(f"x -> pi x does not permute the {name} rows")
    for block, image in expsum._blocks(q, coeffs, images):
        rows = np.take(build(block), perm, axis=1)
        if np.not_equal(rows, build(image), out=rows).any():
            raise VerificationError(
                f"the {name} rows are not closed under x -> pi x")


def orbit_closure(ctx, params, curves=False):
    """Prove by `row_closure` that x -> pi x reads the row of each alpha as
    that of alpha pi^e1, and of each beta as that of beta pi^e2, once c ->
    c pi^e permutes each full table: on the trace rows, or with `curves`
    on the values a' x^e1 (a' over GF(q)) and beta x^e2."""
    q, m, k = ctx.q, params.m, params.k
    if curves:
        tables = (("a' x^e1", range(q),
                   lambda c: expsum._rows(ctx, c, params.e_norm)),
                  ("beta x^e2", range(q),
                   lambda c: expsum._rows(ctx, c, params.e_quad)))
    else:
        tables = (("alpha", subfield_elements(ctx, m),
                   lambda c: expsum._trace_rows(ctx, params, c, [], [])[0]),
                  ("beta", range(q),
                   lambda c: expsum._trace_rows(ctx, params, [], c, [])[1]))
    for (name, full, rows), h in zip(tables, (m, k)):
        pe = ctx.pow(ctx.pi, (1 << h) + 1)
        if (np.sort(_mul(ctx, full, pe)) != np.sort(full)).any():
            raise VerificationError(
                f"x -> pi x does not permute the {name} rows")
        row_closure(rows, full, _mul(ctx, full, pe),
                    _mul(ctx, np.arange(q), ctx.pi), name)


def gamma_axis(ctx):
    """Prove from the bits of the q x q table of rows Tr_n(g x), in blocks,
    that each row is linear, that their bits at x = 2^j, read as n bits u,
    give each u once, and that row g read at pi x is row g pi."""
    q, gammas = ctx.q, np.arange(ctx.q)
    times_pi = _mul(ctx, gammas, ctx.pi)
    if not _gf2_linear(times_pi) or (np.sort(times_pi) != gammas).any():
        raise VerificationError(
            "x -> pi x does not permute the field linearly")
    basis = 1 << np.arange(ctx.n)
    index, shifted = np.empty((2, q), dtype=np.int64)
    for (block,) in expsum._blocks(q, gammas):
        rows = trace_bit_matrix(ctx, 1, block)
        if not _gf2_linear(rows).all():
            raise VerificationError("a row Tr_n(g x) is not GF(2)-linear")
        for out, xs in ((index, basis), (shifted, times_pi[basis])):
            out[block] = sum(rows[:, x].astype(np.int64) << j
                             for j, x in enumerate(xs))
    if (np.bincount(index, minlength=q) != 1).any():
        raise VerificationError("the rows Tr_n(g x) repeat a functional")
    if (shifted != index[times_pi]).any():
        raise VerificationError(
            "the gamma rows are not closed under x -> pi x")


def trace_bit_matrix(ctx, e, coeffs):
    """uint8 rows of Tr(c x^e) over x in mask order, one per coefficient c,
    gathered from the m-sequence seq[t] = Tr(pi^t), Tr by `trace_rel` on
    the basis and read as the parity of x & mask.

    For nonzero c and x, Tr(c x^e) = seq[(log c + e log x) mod L], so row c
    is one gather, at e log x mod L, from the rotation of seq by log c. The
    log of 0 reads as -1, a valid index; column x = 0 and the rows of c = 0
    are then set to Tr(0) = 0.
    """
    n, order = ctx.n, ctx.order
    mask = sum(trace_rel(1 << j, 1, n, ctx.modulus, n) << j for j in range(n))
    seq = (np.bitwise_count(ctx.exp_table & mask) & 1).astype(np.uint8)
    window = sliding_window_view(np.tile(seq, 2), order)
    logs = ctx.log_table * (e % order) % order
    coeffs = np.asarray(coeffs, dtype=np.int64)
    out = np.empty((len(coeffs), ctx.q), dtype=np.uint8)
    for row, shift in zip(out, ctx.log_table[coeffs].tolist()):
        np.take(window[shift], logs, out=row)
    out[:, 0] = out[coeffs == 0] = 0
    return out

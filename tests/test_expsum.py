"""Exponential sums: brute-force spectra against closed-form tables."""

import dataclasses
import json
import re
import tracemalloc
from collections import Counter
from functools import partial
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from kasamilab import (ValueDistribution, VerificationError,
                       artin_schreier_points, build_field, check_cyclicity,
                       codes, derive_params, expsum, field,
                       gamma_sweep_formula,
                       kernel_dims, linearized, moment_targets, moments, rank_profile,
                       s_spectrum, s_spectrum_formula, subfield_elements,
                       t_spectrum, t_spectrum_formula)
from kasamilab.cli import main
from kasamilab.field import (FieldContext, _cycles, power_table,
                             rel_trace_table)

# Frozen from the schoolbook double/triple loops in reference.py.
T_SPECTRA = {
    (4, 1): {-8: 5, -4: 3, 0: 30, 4: 25, 16: 1},
    (6, 1): {-32: 21, -8: 280, 16: 210, 64: 1},
    (6, 2): {-16: 63, -8: 7, 0: 252, 8: 189, 64: 1},
}
S_SPECTRA = {
    (4, 1): {-8: 35, -4: 168, 0: 435, 4: 280, 8: 105, 16: 1},
    (6, 1): {-32: 21, -16: 1260, -8: 7840, 0: 11403, 8: 10080, 16: 2100,
             32: 63, 64: 1},
    (6, 2): {-16: 1890, -8: 5488, 0: 15183, 8: 7056, 16: 3150, 64: 1},
}
MOMENTS = {
    (4, 1): (64, 1024, 2944),
    (6, 1): (512, 97280, 290816),
    (6, 2): (512, 32768, 97280),
    (8, 2): (4096, 1048576, 5226496),
}


@pytest.mark.parametrize("nk", sorted(T_SPECTRA))
def test_t_spectrum_frozen(nk):
    n, k = nk
    dist = t_spectrum(build_field(n), derive_params(n, k))
    assert dist.as_dict() == T_SPECTRA[nk]
    assert dist.total == (1 << (n // 2)) * (1 << n)


@pytest.mark.parametrize("nk", sorted(S_SPECTRA))
def test_s_spectrum_frozen(nk):
    n, k = nk
    dist = s_spectrum(build_field(n), derive_params(n, k))
    assert dist.as_dict() == S_SPECTRA[nk]
    assert dist.total == (1 << (n // 2)) * (1 << n) * (1 << n)


def test_t_spectrum_small_matches_oracle():
    naive = ref.t_spectrum_naive(1, 0x13, 4)
    dist = t_spectrum(build_field(4), derive_params(4, 1))
    assert dist.as_dict() == dict(naive)


def test_s_spectrum_small_matches_oracle():
    naive = ref.s_spectrum_naive(1, 0x13, 4)
    dist = s_spectrum(build_field(4), derive_params(4, 1))
    assert dist.as_dict() == dict(naive)


def bit_count(a):
    """Per-element popcount of an integer ndarray."""
    return np.bitwise_count(a.astype(np.uint64)).astype(np.int64)


def hadamard(q):
    """The q x q Walsh-Hadamard matrix, entry (u, x) = (-1)^(u . x)."""
    x = np.arange(q, dtype=np.int64)
    return 1 - 2 * (bit_count(x[:, None] & x) & 1)


def pair_rows(ctx, params):
    """The trace bits of every (alpha, beta) pair, one row each."""
    arows, brows, _ = expsum._trace_rows(
        ctx, params, subfield_elements(ctx, params.m), range(ctx.q), [])
    return (arows[:, None, :] ^ brows[None, :, :]).reshape(-1, ctx.q)


def all_beta_sweep(ctx, params):
    """S histogram with one Walsh transform for every (alpha, beta) pair."""
    rows = pair_rows(ctx, params)
    values = (1 - 2 * rows.astype(np.int64)) @ hadamard(ctx.q)
    return dict(Counter(values.ravel().tolist()))


@pytest.mark.parametrize("n,k,mod", [(4, 1, 0x13), (6, 1, 0x43),
                                      (6, 2, 0x43), (6, 2, 0x61)])
def test_orbit_sweep_matches_all_beta_oracle(n, k, mod):
    # EvenM, BothOdd and EvenK, and EvenK again under another modulus. S
    # sweeps gamma = 0 and one gamma of the x -> pi x orbit of the rest; the
    # oracle transforms every pair over every gamma.
    ctx, p = build_field(n, mod), derive_params(n, k)
    dist = s_spectrum(ctx, p).as_dict()
    assert dist == all_beta_sweep(ctx, p)
    assert dist == dict(ref.s_spectrum_naive(k, mod, n))


@pytest.mark.parametrize("length", [16, 64, 256, 1024])
def test_fwht_is_the_hadamard_product(length):
    rows = np.random.default_rng(length).integers(-3, 4, size=(5, length))
    want = rows @ hadamard(length)
    assert (expsum._fwht(rows.astype(np.int32)) == want).all()


@pytest.mark.parametrize("n", range(2, 25))
def test_walsh_dtype_holds_every_shifted_value(n):
    # No reader shifts a transform: its values, and those of every butterfly
    # stage, stay within +-q = 2^n, and the gamma-sweep's peaks reach q.
    dtype = expsum._walsh_dtype(n)
    assert 1 << n <= np.iinfo(dtype).max
    assert dtype == (np.int16 if n <= 14 else np.int32)


def test_walsh_counts_hold_the_peak_at_n14():
    # (0, 0) transforms the zero row: q at gamma = 0, the largest value an
    # int16 transform holds, and 0 elsewhere. Its values are shifted by q
    # after the cast to intp, so the peak, 2q once shifted, does not wrap.
    ctx, p = build_field(14), derive_params(14, 1)
    assert next(expsum._s_counts(ctx, p)) == (0, 0, 1,
                                              {0: ctx.q - 1, ctx.q: 1})


def orbit_betas(ctx, params):
    """(alpha, betas, weights) for each alpha of `_pair_orbits`, the betas
    and weights of its blocks joined."""
    return [(alpha, *(np.concatenate(part) for part in zip(*blocks)))
            for alpha, blocks in expsum._pair_orbits(ctx, params)]


def representatives(ctx, params):
    """The (alpha, beta) pairs of `_pair_orbits`, in the order of the
    kernel dimensions."""
    return [(alpha, beta) for alpha, betas, _ in orbit_betas(ctx, params)
            for beta in betas.tolist()]


def test_int16_and_int32_walsh_agree(ctx6, p61, monkeypatch):
    # Moving the rank of a representative pair of either alpha makes the
    # gamma-sweep name it, with the same message on either dtype.
    rows = pair_rows(ctx6, p61)
    ctx8, p8 = build_field(8), derive_params(8, 2)

    def named(i):
        dims = kernel_dims(ctx8, p8)[0]
        dims[i] += 2
        with pytest.raises(VerificationError) as raised:
            expsum.gamma_sweep(ctx8, p8, dims)
        return str(raised.value)

    # (0, pi^2), and alpha = 1 with its last beta.
    pairs = [3, len(representatives(ctx8, p8)) - 1]
    narrow = expsum._walsh(rows), [named(i) for i in pairs]
    monkeypatch.setattr(expsum, "_walsh_dtype", lambda n: np.int32)
    wide = expsum._walsh(rows), [named(i) for i in pairs]
    assert (narrow[0].dtype, wide[0].dtype) == (np.int16, np.int32)
    assert (narrow[0] == wide[0]).all()
    assert narrow[1] == wide[1]
    for i, message in zip(pairs, narrow[1]):
        alpha, beta = representatives(ctx8, p8)[i]
        assert message.startswith(f"pair ({alpha:#x}, {beta:#x}) ")


def traced_peak(fn, *args, **kwargs):
    """Peak bytes traced by tracemalloc during fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_t_sweep_memory_bounded_by_its_chunk():
    # T reads the alpha rows 0 and 1 and 68 orbit representatives of beta,
    # 4096 bits each, in the orbit rule's blocks of at most 64 rows (256 kB,
    # and as much for their XOR with the alpha row), built from their
    # definitions 8 rows (256 kB of int64 products) at a time: 1.5 MB
    # traced, the field's tables built on first use included. A span of 512
    # beta rows, or an int64 product of element logs over every alpha row,
    # takes 2 MB alone.
    ctx, p = build_field(12), derive_params(12, 1)
    assert traced_peak(t_spectrum, ctx, p) < 2 * (1 << 20)


def test_alpha_rows_take_no_more_than_their_table():
    # The 128 alpha rows at (14,1) are 2 MB of uint8 bits, written straight
    # into the table two rows (2^15 int64 products and their trace gather)
    # at a time: 2.75 MB traced. The products of every alpha row at once
    # take 16 MB. The field's cached tables (power maps, logs, traces) are
    # built first.
    ctx, p = build_field(14), derive_params(14, 1)
    alphas = subfield_elements(ctx, p.m)
    expsum._trace_rows(ctx, p, alphas[:2], [], [])
    assert traced_peak(expsum._trace_rows, ctx, p, alphas, [], []) \
        < 3 * (1 << 20)


def test_s_sweep_memory_bounded_by_its_span():
    # The Walsh sweep transforms the orbit rule's blocks of at most 2^18
    # entries: at (10,1) the 4 + 94 representatives, one block per alpha;
    # at (12,2) the 6 + 316, 64 rows of 4096 entries to a block. A block's
    # uint8 bits, their XOR with the alpha row, and its int16 transform and
    # butterfly buffer are held at once; each row of the transform is then
    # counted on its own, by a bincount of 2q + 1 bins, and the transform
    # dropped before the next block is built. 1.0 and 1.9 MB traced, the
    # field's tables (the logs of the x^e1 and x^e2 tables among them)
    # included. At (10,1) the q x q beta rows, unpacked, take 1 MB alone;
    # at (12,2) blocks of 2^19 entries take 3 MB.
    for n, k, bound in ((10, 1, 3 * (1 << 19)), (12, 2, 4 * (1 << 19))):
        ctx, p = build_field(n), derive_params(n, k)
        assert traced_peak(s_spectrum, ctx, p) < bound


def test_gamma_sweep_memory_bounded_by_its_span():
    # The sweep transforms 4 + 94 representative rows of 1024 entries, in
    # one block per alpha: the uint8 bits of the 94, their XOR with the
    # alpha row, and the int16 transform and its butterfly buffer, each row
    # of which is then counted on its own: 0.9 MB traced, the field's
    # tables included. A q x q block per alpha takes 8 MB.
    ctx, p = build_field(10), derive_params(10, 1)
    dims = kernel_dims(ctx, p)[0]
    assert traced_peak(expsum.gamma_sweep, ctx, p, dims) < 4 * (1 << 19)


@pytest.mark.parametrize("alpha,last", [(0, 5), (1, 63), (1, 127),
                                        (1, 255), (1, 315)])
def test_gamma_sweep_reads_every_pair_of_every_block(alpha, last):
    # At (12,2) a block of the orbit rule holds 2^18 // q = 64 betas: alpha
    # = 0 reads its 6 representatives in one, alpha = 1 its 316 in five, and
    # the index last ends a block. Moving the rank of the last pair of any
    # one block makes the sweep name that pair.
    ctx, p = build_field(12), derive_params(12, 2)
    blocks = [betas for betas, _ in expsum._pair_orbits(ctx, p)[alpha][1]]
    assert [len(betas) for betas in blocks] == (
        [6] if alpha == 0 else [64] * 4 + [60])
    ends = np.cumsum([len(betas) for betas in blocks]) - 1
    reps = representatives(ctx, p)
    i = reps.index((alpha, int(blocks[ends.tolist().index(last)][-1])))
    dims = kernel_dims(ctx, p)[0]
    dims[i] += 2
    message = (f"pair ({alpha:#x}, {reps[i][1]:#x}) deviates from the "
               f"rank-{p.s - dims[i]} law")
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        expsum.gamma_sweep(ctx, p, dims)


def orbit_representatives(ctx, params):
    """a' = 0 and pi^j for 0 <= j <= 2^m, one per orbit of a' -> a' pi^e1,
    each with the betas it is read against: those of alpha = 0 for a' = 0,
    else those of alpha = 1, by `_pair_orbits`."""
    (_, zero, _), (_, betas, _) = orbit_betas(ctx, params)
    return [(0, zero)] + [(ctx.pow(ctx.pi, j), betas)
                          for j in range((1 << params.m) + 1)]


def identity_points(ctx, params):
    """A stand-in for artin_schreier_points: the (a', beta) table read off
    the identity, q + (2^d - 1) T(Tr^n_m(a'), beta), through the T
    kernel."""
    sub = subfield_elements(ctx, params.m)
    t = t_table(ctx, params, sub, range(ctx.q))
    traces = rel_trace_table(ctx, params.m, params.n)

    def counts(ctx, params, alpha_prime, betas):
        rows = [sub.index(a) for a in traces[alpha_prime].tolist()]
        return ctx.q + ((1 << params.d) - 1) * t[np.ix_(rows, betas)]
    return counts


def test_artin_schreier_sweep_counts_every_curve_once_per_block(
        monkeypatch):
    # Each call counts the curves of every a' representative of one alpha
    # over one block of betas of the orbit rule, at most 2^18 // q = 256 of
    # them; together the calls count the curves of every orbit
    # representative a', against each beta representative of its alpha,
    # each once, and no other curve.
    ctx, p = build_field(10), derive_params(10, 1)
    calls, counted = [], np.zeros((ctx.q, ctx.q), dtype=np.int64)
    identity = identity_points(ctx, p)

    def recording(ctx, params, alpha_prime, betas):
        calls.append((len(alpha_prime), betas.tolist()))
        np.add.at(counted, np.ix_(alpha_prime, betas), 1)
        return identity(ctx, params, alpha_prime, betas)

    monkeypatch.setattr(expsum, "artin_schreier_points", recording)
    assert expsum.artin_schreier_sweep(ctx, p) is None
    reps = orbit_representatives(ctx, p)
    assert len({a for a, _ in reps}) == (1 << p.m) + 2
    assert [b for _, b in calls] == [
        betas.tolist() for _, blocks in expsum._pair_orbits(ctx, p)
        for betas, _ in blocks]
    assert {a for a, _ in calls} == {1, (1 << p.m) + 1}
    assert max(len(b) for _, b in calls) <= (1 << 18) // ctx.q
    assert all((counted[a, betas] == 1).all() for a, betas in reps)
    assert counted.sum() == sum(len(betas) for _, betas in reps)


def test_artin_schreier_sweep_names_the_curve_in_the_last_block(
        monkeypatch):
    # Counts read off the identity, with one point more on the last curve
    # of the last block of the orbit rule, that of the last orbit
    # representative and its last beta: it is named.
    ctx, p = build_field(10), derive_params(10, 1)
    identity = identity_points(ctx, p)
    last = orbit_representatives(ctx, p)[-1][0]
    beta = int(expsum._pair_orbits(ctx, p)[-1][1][-1][0][-1])

    def one_more(ctx, params, alpha_prime, betas):
        counts = identity(ctx, params, alpha_prime, betas)
        counts[np.ix_(alpha_prime == last, betas == beta)] += 1
        return counts

    monkeypatch.setattr(expsum, "artin_schreier_points", one_more)
    want = int(identity(ctx, p, np.array([last]), np.array([beta]))[0, 0])
    message = (f"({last:#x}, {beta:#x}): {want + 1} points, identity "
               f"gives {want}")
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        expsum.artin_schreier_sweep(ctx, p)


@pytest.mark.parametrize("n,orbits", [(4, 6), (6, 14), (8, 36), (10, 108)])
def test_frobenius_orbits(n, orbits):
    ctx = build_field(n)
    _, reps, sizes = _cycles(power_table(ctx, 2), n)
    assert len(reps) == orbits and sizes.sum() == ctx.q
    assert all(n % size == 0 for size in sizes.tolist())
    if n <= 6:
        seen = {}
        for x in range(ctx.q):
            orbit = {ctx.pow(x, 1 << i) for i in range(n)}
            seen[min(orbit)] = len(orbit)
        assert dict(zip(reps.tolist(), sizes.tolist())) == seen


# The value-row entry a test flips is XORed with 32 in GF(64): a change of
# 1, or of any 2^j with j < 5, has Tr_6 = 0, so the curves' point counts
# would not see it, and one in GF(2) cancels in beta x^e2 + its Frobenius
# image, the beta part of phi.
VALUE_FLIP = 32


def patch_row_builder(monkeypatch, builder):
    """Put `builder` in place of `expsum._rows`, the one row builder, in
    each module that calls it."""
    for module in (expsum, linearized):
        monkeypatch.setattr(module, "_rows", builder)


def flip_row_bit(monkeypatch, e, coeff, values=False, x=3):
    """Patch `expsum._rows`, the one row builder: wherever the trace row of
    coeff at x^e is built, flip bit 0 of its entry x; with values, XOR
    entry x of its value row c x^e with VALUE_FLIP."""
    build = expsum._rows

    def flipped(ctx, coeffs, ee, outer=None):
        rows = build(ctx, coeffs, ee, outer)
        if ee == e and (outer is None) == values:
            hit = np.asarray(coeffs).reshape(-1) == coeff
            rows.reshape(-1, ctx.q)[hit, x] ^= VALUE_FLIP if values else 1
        return rows

    patch_row_builder(monkeypatch, flipped)


# The orbit lemma is made once per field and no row is kept, so a test that
# patches the row builder may read a field of its own all the same.

@pytest.mark.parametrize("axis,name", [(0, "alpha"), (1, "beta")])
def test_flipped_bit_breaks_the_times_pi_closure(monkeypatch, axis, name):
    # A row with one bit flipped is off its definition, so x -> pi x no
    # longer carries it onto a row. S reads that alpha row, alpha = 1, or
    # beta row, beta = 5, both orbit representatives, and moves off its
    # closed form while it still covers every triple.
    ctx, p = build_field(6), derive_params(6, 1)
    flip_row_bit(monkeypatch, *((p.e_norm, 1) if name == "alpha"
                                else (p.e_quad, 5)))
    dist = s_spectrum(ctx, p)
    assert dist.total == 1 << (3 * p.m + p.n)
    assert dist.as_dict() != s_spectrum_formula(p).as_dict()


@pytest.mark.parametrize("sweep", ["gamma_sweep", "artin_schreier_sweep"])
@pytest.mark.parametrize("axis,name", [(0, "alpha"), (1, "beta")])
def test_per_pair_checks_need_the_trace_rows_closed_under_pi(
        monkeypatch, sweep, axis, name):
    # alpha = 1 stands for every alpha != 0 only while each row is its
    # definition. A bit flipped in a row both sweeps read, the zero alpha
    # row (the gamma-sweep reads alpha = 0, Artin-Schreier Tr^6_3(0) = 0) or
    # beta = 5 (a representative of alpha = 1), moves a pair off its rank
    # law, or a curve off the identity.
    ctx, p = build_field(6), derive_params(6, 1)
    args = (kernel_dims(ctx, p)[0],) if sweep == "gamma_sweep" else ()
    flip_row_bit(monkeypatch, *((p.e_norm, 0) if name == "alpha"
                                else (p.e_quad, 5)))
    law = ("deviates from the rank-" if sweep == "gamma_sweep"
           else "points, identity gives")
    with pytest.raises(VerificationError, match=law):
        getattr(expsum, sweep)(ctx, p, *args)


def test_row_closure_needs_both_maps_to_permute():
    # Row i of the identity read at the swap of 0 and 1 is the row of the
    # swap of i; a perm that sends two entries to one is no licence, whatever
    # the rows read. The coefficient map is checked by `orbit_closure`.
    rows, ids, swap = np.eye(4, dtype=np.uint8), np.arange(4), [1, 0, 2, 3]
    def build(coeffs):
        return rows[coeffs]

    ref.row_closure(build, ids, ids, ids, "unit")
    ref.row_closure(build, ids, np.array(swap), np.array(swap), "unit")
    with pytest.raises(VerificationError,
                       match="unit rows are not closed under x -> pi x"):
        ref.row_closure(build, ids, ids, np.array(swap), "unit")
    with pytest.raises(VerificationError,
                       match="x -> pi x does not permute the unit rows"):
        ref.row_closure(build, ids, ids, np.array([0, 0, 2, 3]), "unit")


@pytest.mark.parametrize("curves", [False, True], ids=["trace", "value"])
def test_orbit_closure_needs_the_coefficient_map_to_permute(
        monkeypatch, curves):
    # pi^e patched to 0 sends every coefficient to 0, and the zero rows
    # agree, so only the check of the coefficient map refuses it.
    ctx, p = build_field(6), derive_params(6, 1)
    monkeypatch.setattr(FieldContext, "pow", lambda self, a, e: 0)
    with pytest.raises(VerificationError,
                       match="x -> pi x does not permute the .* rows"):
        ref.orbit_closure(ctx, p, curves)


def test_verify_proves_each_orbit_law_once(tmp_path, monkeypatch):
    # T, S, the gamma-sweep and its gamma axis, Artin-Schreier, cyclicity
    # (c1, c2) and the kernel sizes each call the orbit lemma. Its field
    # part is made once, and its power-table law once per exponent, e1 = 9,
    # e2 = 3 and, for the gamma rows of c2's cyclicity, 1; no other proof of
    # the orbit law is made.
    built, cached = [], field._cached

    def recorded(ctx, key, build):
        if key not in ctx._cache:
            built.append((id(ctx), key))
        return cached(ctx, key, build)

    monkeypatch.setattr(field, "_cached", recorded)
    assert main(["verify", "--n", "6", "--k", "1",
                 "--out", str(tmp_path)]) == 3
    lemma = [(ctx, key) for ctx, key in built if "orbit lemma" in key]
    assert len({ctx for ctx, _ in lemma}) == 1
    assert Counter(key for _, key in lemma) == {
        "orbit lemma": 1, ("orbit lemma", 9): 1, ("orbit lemma", 3): 1,
        ("orbit lemma", 1): 1}


def test_a_proof_that_raised_is_made_again(monkeypatch):
    # A lemma that raised keeps nothing, so each reader makes it again and
    # reports the failure; once it holds, it is made no more.
    ctx, calls, linear = build_field(6), [], field._gf2_linear

    def failing_twice(table):
        calls.append(len(table))
        return linear(table) and len(calls) > 2

    monkeypatch.setattr(field, "_gf2_linear", failing_twice)
    for _ in range(2):
        with pytest.raises(VerificationError,
                           match="x -> pi x does not permute the field"):
            field._orbit_lemma(ctx)
    field._orbit_lemma(ctx)
    field._orbit_lemma(ctx, 9, 3)
    assert calls == [ctx.q] * 3


def broken_field(how):
    """GF(64) with two log_table entries exchanged, or with two entries of
    its x^3 table (e2 at k = 1) exchanged before any reader builds it."""
    ctx = build_field(6)
    if how == "log":
        log = ctx.log_table.copy()
        log[[3, 5]] = log[[5, 3]]
        return dataclasses.replace(ctx, log_table=log, _cache={})
    cubes = power_table(build_field(6), 3).copy()
    cubes[[3, 5]] = cubes[[5, 3]]
    field._cached(ctx, ("pow", 3), lambda: cubes)
    return ctx


@pytest.mark.parametrize("how,message", [
    ("log", "x -> pi x has no log: the log and exp tables are not inverse"),
    ("power", "the x^3 table breaks x -> pi x: P[pi x] is not pi^3 P[x]")],
    ids=["log", "power"])
def test_a_broken_field_fails_every_orbit_reader(how, message):
    # Each of the six readers proves the orbit lemma before it reads a row,
    # so each refuses the field with the lemma's own text, naming x -> pi x.
    # The gamma-sweep is given the kernel table of a sound field.
    p = derive_params(6, 1)
    dims = kernel_dims(build_field(6), p)[0]
    ctx = broken_field(how)
    readers = [partial(t_spectrum, ctx, p), partial(s_spectrum, ctx, p),
               partial(expsum.gamma_sweep, ctx, p, dims),
               partial(check_cyclicity, ctx, p, "c1"),
               partial(kernel_dims, ctx, p),
               partial(expsum.artin_schreier_sweep, ctx, p)]
    for reader in readers:
        with pytest.raises(VerificationError, match=re.escape(message)):
            reader()


@pytest.mark.parametrize("j", ["m", "n"])
def test_a_trace_entry_off_the_bits_is_refused(monkeypatch, j):
    # Tr_m, which the alpha rows read, or Tr_n, which the beta and gamma
    # rows read, with its entry at 1 made 2: T and S (alpha = 1 and beta =
    # 1 read it at x = 1) and the codewords each refuse the row, as no trace
    # row may hold anything but a bit. S proves its gamma axis on Tr_n
    # before it reads a row, and refuses that Tr_n as no linear map.
    ctx, p = build_field(6), derive_params(6, 1)
    build, broken_j = expsum.rel_trace_table, getattr(p, j)

    def two_at_one(ctx, i, jj):
        table = build(ctx, i, jj)
        if (i, jj) == (1, broken_j):
            table = table.copy()
            table[1] = 2
        return table

    monkeypatch.setattr(expsum, "rel_trace_table", two_at_one)
    readers = [partial(t_spectrum, ctx, p), partial(s_spectrum, ctx, p),
               partial(codes._word_rows, ctx, p, subfield_elements(ctx, p.m),
                       range(ctx.q), range(ctx.q))]
    off_the_bits = r"^a trace row of x\^\d+ holds a value other than 0 or 1$"
    for reader in readers:
        with pytest.raises(VerificationError, match=(
                r"^Tr_n is not GF\(2\)-linear$"
                if (reader.func, j) == (s_spectrum, "n") else off_the_bits)):
            reader()


def verify_mismatches(tmp_path):
    """The names of the records `verify --n 6 --k 1` finds off, once it has
    exited 2."""
    assert main(["verify", "--n", "6", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    return [r["name"] for r in report["records"] if r["status"] == "mismatch"]


def test_verify_records_a_broken_times_pi_closure(tmp_path, monkeypatch):
    # One bit flipped in the beta row of pi^62, which no orbit rule reads
    # and the parity check's words do not read: the family's members, which
    # read every beta row, and their correlation record a mismatch, and no
    # other check does. The per-pair checks, T and S among them, read one
    # beta per orbit, so they need the orbit lemma on the tables every row
    # is built from, as cyclicity does, and no row.
    ctx, p = build_field(6), derive_params(6, 1)
    flip_row_bit(monkeypatch, p.e_quad, int(ctx.exp_table[62]))
    assert verify_mismatches(tmp_path) == ["family", "correlation"]


def test_verify_records_a_broken_representative_row(tmp_path, monkeypatch):
    # One bit flipped in the beta row of 5, a representative of alpha = 1:
    # T and every reader of it, the per-pair checks and both code weights
    # record a mismatch; the kernel sizes read value rows, and the parity
    # check's words do not read that row.
    flip_row_bit(monkeypatch, derive_params(6, 1).e_quad, 5)
    assert verify_mismatches(tmp_path) == [
        "moments", "t-spectrum", "s-spectrum", "gamma-sweep",
        "artin-schreier", "code-weights-c1", "code-weights-c2", "family",
        "correlation"]


@pytest.mark.parametrize("h,coeff,name", [(3, 1, "a' x^e1"),
                                          (1, 5, "beta x^e2")],
                         ids=["a-prime", "beta"])
def test_kernel_dims_needs_the_value_rows_closed_under_pi(
        monkeypatch, h, coeff, name):
    # The kernel sizes read a' = 0 and 1 and the beta representatives of
    # each, 5 among those of alpha = 1; a flipped entry of a value row they
    # read breaks the kernel law of a phi row: its zeros are no power of q0
    # in number, or it is no GF(2)-linear map.
    flip_row_bit(monkeypatch, (1 << h) + 1, coeff, values=True)
    with pytest.raises(VerificationError, match=(
            {"a' x^e1": r"kernel size 15 is not a power of q0=2",
             "beta x^e2": r"phi_\(0x1, 0x5\) is not GF\(2\)-linear"}[name])):
        kernel_dims(build_field(6), derive_params(6, 1))


@pytest.mark.parametrize("h,coeff,name", [(3, 6, "a' x^e1"),
                                          (1, 5, "beta x^e2")],
                         ids=["a-prime", "beta"])
def test_artin_schreier_needs_the_value_rows_closed_under_pi(
        monkeypatch, h, coeff, name):
    # The point counts read a' = 0 and pi^j, j <= 8 (a' = 6 is pi^7), and
    # the beta representatives of alpha = 0 and 1 (5 among the latter); a
    # flipped entry moves a curve off the identity.
    flip_row_bit(monkeypatch, (1 << h) + 1, coeff, values=True)
    with pytest.raises(VerificationError, match="points, identity gives"):
        expsum.artin_schreier_sweep(build_field(6), derive_params(6, 1))


def test_verify_records_a_broken_value_row(tmp_path, monkeypatch):
    # Only the kernel sizes (which the gamma-sweep reads) and the point
    # counts read the value rows; each names the first pair or curve off,
    # beta = 5 being a representative of alpha = 1.
    flip_row_bit(monkeypatch, 3, 5, values=True)
    assert main(["verify", "--n", "6", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    failed = {r["name"]: r["detail"] for r in report["records"]
              if r["status"] == "mismatch"}
    kernel = "phi_(0x1, 0x5) is not GF(2)-linear"
    assert failed == {"rank-profile": kernel, "gamma-sweep": kernel,
                      "artin-schreier": "(0x1, 0x5): 82 points, identity "
                                        "gives 80"}


# Every n <= 12 point `verify` runs in this suite, and (6,2) under a second
# modulus.
ORACLE_POINTS = [(4, 1, None), (4, 3, None), (6, 1, None), (6, 2, None),
                 (6, 4, None), (6, 5, None), (8, 2, None), (10, 1, None),
                 (10, 2, None), (12, 1, None), (6, 2, 0x61)]


@pytest.mark.parametrize("n,k,mod", ORACLE_POINTS)
def test_orbit_sweeps_match_the_full_table_oracles(n, k, mod):
    # The O(q) lemma holds where the O(q^2) full-table proofs of the trace
    # rows, the value rows and the gamma axis hold, and T and S over the
    # stabilizer orbits equal the sweeps over every alpha row and beta.
    # The beta and gamma rows equal those the m-sequence oracle gathers.
    ctx, p = build_field(n, mod), derive_params(n, k)
    field._orbit_lemma(ctx, p.e_norm, p.e_quad)
    ref.orbit_closure(ctx, p)
    ref.orbit_closure(ctx, p, curves=True)
    ref.gamma_axis(ctx)
    for (block,) in expsum._blocks(ctx.q, np.arange(ctx.q)):
        _, brows, grows = expsum._trace_rows(ctx, p, [], block, block)
        assert (brows == ref.trace_bit_matrix(ctx, p.e_quad, block)).all()
        assert (grows == ref.trace_bit_matrix(ctx, 1, block)).all()
    assert t_spectrum(ctx, p).as_dict() == ref.popcount_sweep(ctx, p)
    assert s_spectrum(ctx, p).as_dict() == \
        ref.popcount_sweep(ctx, p, linear=True)


@pytest.mark.parametrize("n,k,rows", [(10, 2, 34), (12, 1, 68)])
def test_t_reads_one_beta_row_per_orbit(monkeypatch, n, k, rows):
    # alpha = 0 reads beta = 0 and one beta per coset of the e2-th powers,
    # alpha = 1 beta = 0 and one per orbit of the stabilizer c^e1 = 1 acting
    # by c^e2: 2 + gcd(e2, L) + gcd((2^m - 1) e2, L) beta rows in all, for
    # T's table and S's Walsh sweep alike, each built once, a block of the
    # orbit rule at a time.
    ctx, p = build_field(n), derive_params(n, k)
    built, build = {t_spectrum: [], s_spectrum: []}, expsum._trace_rows

    def counting(ctx, params, alphas, betas, gammas):
        if len(betas):
            built[sweep].append(np.asarray(betas).tolist())
        return build(ctx, params, alphas, betas, gammas)

    monkeypatch.setattr(expsum, "_trace_rows", counting)
    for sweep in built:
        sweep(ctx, p)
    blocks = [betas.tolist() for _, cut in expsum._pair_orbits(ctx, p)
              for betas, _ in cut]
    assert built == {t_spectrum: blocks, s_spectrum: blocks}
    assert max(map(len, blocks)) <= (1 << 18) // ctx.q
    order = ctx.order
    assert sum(map(len, blocks)) == rows == 2 + gcd(p.e_quad, order) + gcd(
        ((1 << p.m) - 1) * p.e_quad, order)


@pytest.mark.parametrize("sweep,n,k", [("gamma_sweep", 8, 2),
                                       ("kernel_dims", 8, 2),
                                       ("artin_schreier_sweep", 6, 1)])
def test_each_reader_builds_each_beta_row_once(monkeypatch, sweep, n, k):
    # The gamma-sweep and the kernel sizes build the trace or value row of
    # each beta representative of `_pair_orbits` once, T's 2 + gcd(e2, L) +
    # gcd((2^m - 1) e2, L) rows. Artin-Schreier builds the trace row of
    # each (for T) once, and its value row once, which its point counts
    # read for every a' representative (a' = 0 for alpha = 0, the 2^m + 1
    # others for alpha = 1).
    ctx, p = build_field(n), derive_params(n, k)
    args = (kernel_dims(ctx, p)[0],) if sweep == "gamma_sweep" else ()
    counted, build = Counter(), expsum._rows

    def counting(ctx, coeffs, e, outer=None):
        if e == p.e_quad:
            counted["value" if outer is None else "trace"] += np.size(coeffs)
        return build(ctx, coeffs, e, outer)

    patch_row_builder(monkeypatch, counting)
    reader = kernel_dims if sweep == "kernel_dims" else getattr(expsum, sweep)
    reader(ctx, p, *args)
    zero, one = (len(betas) for _, betas, _ in orbit_betas(ctx, p))
    if sweep == "artin_schreier_sweep":
        assert counted == {"trace": zero + one, "value": zero + one}
    else:
        kind = "trace" if sweep == "gamma_sweep" else "value"
        assert counted == {kind: zero + one} == {kind: 2 + gcd(
            p.e_quad, ctx.order) + gcd(((1 << p.m) - 1) * p.e_quad, ctx.order)}
        assert zero + one == 22


VALID_NK = [(n, k) for n in (4, 6, 8) for k in range(1, n) if k != n // 2]


@pytest.mark.parametrize("n,k", VALID_NK + [(10, 1), (10, 2), (12, 1)])
def test_orbit_rule_matches_the_full_tables(n, k):
    # Each representative's kernel dimension is its entry of the table of
    # every beta, the weighted dimensions give that table's rank profile,
    # and the gamma-sweep and Artin-Schreier, on orbit representatives, find
    # no pair or curve off its law (they return without raising), as the
    # sweeps over every beta do. Up to n = 8 the table holds every alpha;
    # from n = 10 alpha = 0 and 1, alpha = 1 standing for the 2^m - 1
    # alphas != 0, the sweep made before the orbit rule.
    ctx, p = build_field(n), derive_params(n, k)
    alphas = subfield_elements(ctx, p.m) if n <= 8 else [0, 1]
    kernel, full = kernel_dims(ctx, p), ref.kernel_dims(ctx, p, alphas)
    assert kernel[0].tolist() == [full[alphas.index(alpha), beta]
                                  for alpha, beta in representatives(ctx, p)]
    if n <= 8:
        profile = Counter(full.ravel()[1:].tolist())
    else:
        profile = Counter(full[0, 1:].tolist())
        profile.update({dim: c * ((1 << p.m) - 1)
                        for dim, c in Counter(full[1].tolist()).items()})
    assert rank_profile(kernel) == (profile[0], profile[2], profile[4])
    assert expsum.gamma_sweep(ctx, p, kernel[0]) is None
    assert ref.gamma_sweep(ctx, p, full, alphas) == []
    if p.d_prime == 2 * p.d and n <= 8:
        assert expsum.artin_schreier_sweep(ctx, p) is None
        assert ref.artin_schreier_sweep(ctx, p) == []


@pytest.mark.slow
def test_artin_schreier_orbit_rule_matches_the_full_sweep_n10():
    ctx, p = build_field(10), derive_params(10, 1)
    assert expsum.artin_schreier_sweep(ctx, p) is None
    assert ref.artin_schreier_sweep(ctx, p) == []


@pytest.mark.parametrize("n", range(4, 13, 2))
def test_popcounts_count_the_xor_of_every_row_pair(n):
    # The T kernel reads q - 2 wt(a ^ b) for every row a against the beta
    # row b of each beta, and leaves the rows it is given as they were.
    rng = np.random.default_rng(n)
    ctx, p = build_field(n), derive_params(n, 1)
    a = rng.integers(0, 2, (5, ctx.q), dtype=np.uint8)
    betas = rng.integers(0, ctx.q, 7)
    b = expsum._trace_rows(ctx, p, [], betas, [])[1]
    kept = a.copy()
    t = expsum._t_table(ctx, p, a, betas)
    assert (t == ctx.q - 2 * np.count_nonzero(a[:, None] ^ b[None], -1)).all()
    assert (a == kept).all()


def t_table(ctx, params, alphas, betas):
    """T(alpha, beta) through the sweeps' T kernel, one row per alpha."""
    arows, _, _ = expsum._trace_rows(ctx, params, alphas, [], [])
    return expsum._t_table(ctx, params, arows, betas)


def test_t_sum_matches_oracle(ctx6, p62):
    sub = subfield_elements(ctx6, 3)
    alphas, betas = (0, 1, sub[3]), (0, 1, 17, 62)
    got = t_table(ctx6, p62, alphas, betas)
    assert got.tolist() == [[ref.t_value(alpha, beta, 2, 0x43, 6)
                             for beta in betas] for alpha in alphas]


def test_s_sum_matches_oracle(ctx6, p61):
    # S(alpha, beta, gamma) is the sign sum of the three trace rows.
    sub = subfield_elements(ctx6, 3)
    alphas, betas, gammas = (0, sub[2]), (3, 44), (0, 29)
    arows, brows, grows = expsum._trace_rows(ctx6, p61, alphas, betas, gammas)
    for arow, alpha in zip(arows, alphas):
        for brow, beta in zip(brows, betas):
            for grow, gamma in zip(grows, gammas):
                assert ctx6.q - 2 * np.count_nonzero(arow ^ brow ^ grow) == \
                    ref.s_value(alpha, beta, gamma, 1, 0x43, 6)


@pytest.mark.parametrize("n,k,mod", [(4, 1, 0x13), (6, 1, 0x43),
                                      (6, 2, 0x43), (6, 2, 0x61)])
def test_rows_are_their_schoolbook_definitions(n, k, mod):
    # Every alpha, beta and gamma trace row and every value row a' x^e1 and
    # beta x^e2 the one builder makes, entry by entry, against schoolbook
    # products, powers and traces.
    ctx, p = build_field(n, mod), derive_params(n, k)
    elems, sub = range(ctx.q), ref.subfield(p.m, mod, n)
    trn = [ref.trace_rel(y, 1, n, mod, n) for y in elems]
    trm = {y: ref.trace_rel(y, 1, p.m, mod, n) for y in sub}
    norm, quad = ([ref.gf2_pow(x, e, mod, n) for x in elems]
                  for e in (p.e_norm, p.e_quad))

    def times(c, ys):
        return [ref.gf2_mul(c, y, mod, n) for y in ys]

    arows, brows, grows = expsum._trace_rows(ctx, p, sub, elems, elems)
    avals = expsum._rows(ctx, elems, p.e_norm)
    bvals = expsum._rows(ctx, elems, p.e_quad)
    assert (arows.dtype, brows.dtype, avals.dtype) == (np.uint8, np.uint8,
                                                       np.int64)
    for a, row in zip(sub, arows.tolist()):
        assert row == [trm[y] for y in times(a, norm)]
    for c in elems:
        assert avals[c].tolist() == times(c, norm)
        assert bvals[c].tolist() == times(c, quad)
        assert brows[c].tolist() == [trn[y] for y in times(c, quad)]
        assert grows[c].tolist() == [trn[y] for y in times(c, elems)]


def test_t_sum_rejects_nonsubfield_alpha(ctx6, p61):
    outside = next(x for x in range(64)
                   if x not in set(subfield_elements(ctx6, 3)))
    with pytest.raises(ValueError):
        t_table(ctx6, p61, [outside], [1])


@pytest.mark.parametrize("n,ks", [(4, (1, 3)), (6, (1, 2, 4, 5))])
def test_formula_matches_brute(n, ks):
    ctx = build_field(n)
    for k in ks:
        p = derive_params(n, k)
        assert t_spectrum(ctx, p).as_dict() == t_spectrum_formula(p).as_dict()
        assert s_spectrum(ctx, p).as_dict() == s_spectrum_formula(p).as_dict()


@pytest.mark.slow
@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7])
def test_formula_matches_brute_n8(k):
    ctx = build_field(8)
    p = derive_params(8, k)
    assert t_spectrum(ctx, p).as_dict() == t_spectrum_formula(p).as_dict()
    assert s_spectrum(ctx, p).as_dict() == s_spectrum_formula(p).as_dict()


def test_last_row_note_only_in_two_regime_case():
    # The tabulated all-zero row is misprinted only in the d' = 2d table.
    assert t_spectrum_formula(derive_params(6, 1)).notes
    assert s_spectrum_formula(derive_params(6, 1)).notes
    assert not t_spectrum_formula(derive_params(4, 1)).notes
    assert not t_spectrum_formula(derive_params(6, 2)).notes
    assert not t_spectrum_formula(derive_params(8, 2)).notes


@pytest.mark.parametrize("nk", sorted(MOMENTS))
def test_moment_targets_frozen(nk):
    assert moment_targets(derive_params(*nk)) == MOMENTS[nk]


@pytest.mark.parametrize("n", [4, 6])
def test_moments_all_k(n):
    ctx = build_field(n)
    for k in range(1, n):
        if k == n // 2:
            continue
        p = derive_params(n, k)
        assert moments(t_spectrum(ctx, p), p) == moment_targets(p)


@pytest.mark.slow
def test_moments_all_k_n8(ctx8):
    for k in range(1, 8):
        if k == 4:
            continue
        p = derive_params(8, k)
        assert moments(t_spectrum(ctx8, p), p) == moment_targets(p)


def gamma_rows(ctx, params):
    """S over gamma of every (alpha, beta), as the sweep transforms it: one
    row per pair, alpha in subfield order and then beta."""
    return expsum._walsh(pair_rows(ctx, params))


def test_gamma_sweep_frozen(ctx4, p41):
    rows, row = gamma_rows(ctx4, p41), subfield_elements(ctx4, 2).index(1)
    assert Counter(rows[16 * row + 1].tolist()) == {-4: 6, 4: 10}
    assert Counter(rows[1].tolist()) == {-8: 1, 0: 12, 8: 3}


def test_gamma_sweep_matches_oracle(ctx4, p41):
    rows, sub = gamma_rows(ctx4, p41), subfield_elements(ctx4, 2)
    for alpha, beta in [(1, 1), (0, 1), (1, 0), (6, 9)]:
        naive = ref.gamma_sweep_naive(alpha, beta, 1, 0x13, 4)
        assert Counter(rows[16 * sub.index(alpha) + beta].tolist()) == \
            dict(naive)


def test_gamma_sweep_formula_exhaustive(ctx4, p41):
    rows = gamma_rows(ctx4, p41)
    ranks = p41.s - ref.kernel_dims(ctx4, p41).ravel()
    # Row 0 is the pair (0, 0), which has no form.
    for row, rank in zip(rows[1:], ranks[1:].tolist()):
        assert Counter(row.tolist()) == \
            gamma_sweep_formula(p41, rank).as_dict()


def test_gamma_sweep_formula_shape(p41):
    # rank r: zero count q0^s - q0^r, signed counts (q0^r +- q0^(r/2))/2.
    q0, s = p41.q0, p41.s
    for rank in (2, 4):
        dist = gamma_sweep_formula(p41, rank).as_dict()
        mag = q0 ** (s - rank // 2)
        assert dist.get(mag, 0) == (q0 ** rank + q0 ** (rank // 2)) // 2
        assert dist.get(-mag, 0) == (q0 ** rank - q0 ** (rank // 2)) // 2
        assert dist.get(0, 0) == q0 ** s - q0 ** rank
        assert sum(dist.values()) == q0 ** s


def test_point_count_identity_exhaustive(ctx6, p61):
    q = 64
    factor = (1 << p61.d) - 1
    sub = subfield_elements(ctx6, 3)
    t = t_table(ctx6, p61, sub, range(q))
    for alpha_prime in range(q):
        trp = rel_trace_table(ctx6, p61.m, p61.n)[alpha_prime]
        for beta in range(q):
            if alpha_prime == 0 and beta == 0:
                continue
            expected = (1 << p61.n) + factor * t[sub.index(trp), beta]
            assert artin_schreier_points(ctx6, p61, alpha_prime, beta) == expected


def test_point_count_matches_oracle(ctx6, p61):
    for alpha_prime, beta in [(1, 0), (0, 1), (5, 40), (63, 63)]:
        assert artin_schreier_points(ctx6, p61, alpha_prime, beta) == \
            ref.as_points_naive(alpha_prime, beta, 1, 1, 0x43, 6)


def test_point_count_rejects_single_regime(ctx4, p41):
    with pytest.raises(ValueError):
        artin_schreier_points(ctx4, p41, 1, 1)


@given(st.integers(0, 7), st.integers(0, 63))
@settings(max_examples=40)
def test_s_at_zero_gamma_is_t(ai, beta):
    ctx, p = build_field(6), derive_params(6, 1)
    alpha = subfield_elements(ctx, 3)[ai]
    arows, brows, grows = expsum._trace_rows(ctx, p, [alpha], [beta], [0])
    s = ctx.q - 2 * np.count_nonzero(arows ^ brows ^ grows)
    assert s == t_table(ctx, p, [alpha], [beta])[0, 0]


def test_scaling_invariance(ctx8):
    # x -> ux permutes the field: T(alpha*u^e1, beta*u^e2) = T(alpha, beta).
    p = derive_params(8, 2)
    sub = subfield_elements(ctx8, 4)
    for u in (1, 3, 91, 250):
        ue1 = ctx8.pow(u, p.e_norm)
        ue2 = ctx8.pow(u, p.e_quad)
        for alpha, beta in [(sub[1], 5), (sub[7], 133), (0, 17)]:
            t = t_table(ctx8, p, [ctx8.mul(alpha, ue1), alpha],
                        [ctx8.mul(beta, ue2), beta])
            assert t[0, 0] == t[1, 1]


@pytest.mark.slow
def test_scaling_invariance_large_field():
    ctx = build_field(12)
    p = derive_params(12, 2)
    sub = subfield_elements(ctx, 6)
    u = 1234
    ue1, ue2 = ctx.pow(u, p.e_norm), ctx.pow(u, p.e_quad)
    for alpha, beta in [(sub[5], 99), (sub[60], 4000)]:
        t = t_table(ctx, p, [ctx.mul(alpha, ue1), alpha],
                    [ctx.mul(beta, ue2), beta])
        assert t[0, 0] == t[1, 1]


def test_point_counts_over_a_beta_array(ctx6, p61):
    # Two scalars give an int, an array of betas one count per beta, and
    # an array of a' too the (a', beta) table, one row per a'.
    assert type(artin_schreier_points(ctx6, p61, 1, 2)) is int
    betas = np.arange(ctx6.q)
    table = artin_schreier_points(ctx6, p61, betas, betas)
    for alpha_prime in range(ctx6.q):
        counts = artin_schreier_points(ctx6, p61, alpha_prime, betas)
        assert counts.tolist() == table[alpha_prime].tolist() == [
            artin_schreier_points(ctx6, p61, alpha_prime, beta)
            for beta in range(ctx6.q)]


def verify_record(tmp_path, name, n=6, k=1):
    code = main(["verify", "--n", str(n), "--k", str(k),
                 "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    return code, next(r for r in report["records"] if r["name"] == name)


def test_verify_names_the_curve_off_the_identity(tmp_path, monkeypatch,
                                                 ctx6, p61):
    # a' = 3 is pi^6, and beta = 5 a representative of alpha = 1.
    def one_point_more(ctx, params, alpha_prime, betas):
        counts = artin_schreier_points(ctx, params, alpha_prime, betas)
        counts[np.ix_(alpha_prime == 0x3, betas == 0x5)] += 1
        return counts

    monkeypatch.setattr("kasamilab.expsum.artin_schreier_points",
                        one_point_more)
    code, record = verify_record(tmp_path, "artin-schreier")
    want = (1 << 6) + ((1 << p61.d) - 1) * int(t_table(
        ctx6, p61, [rel_trace_table(ctx6, 3, 6)[0x3]], [0x5])[0, 0])
    assert code == 2 and record["status"] == "mismatch"
    assert record["detail"] == (f"(0x3, 0x5): {want + 1} points, identity "
                                f"gives {want}")


def test_verify_names_the_first_pair_off_the_rank_law(tmp_path, monkeypatch,
                                                      ctx6, p61):
    # A rank-4 law with one zero turned into a +peak: the first
    # representative pair of rank 4, in the order of `_pair_orbits`, is the
    # one named.
    def moved(params, rank):
        counts = gamma_sweep_formula(params, rank).as_dict()
        if rank == 4:
            counts[0] -= 1
            counts[max(counts)] += 1
        return ValueDistribution.from_counts(counts)

    monkeypatch.setattr("kasamilab.expsum.gamma_sweep_formula", moved)
    code, record = verify_record(tmp_path, "gamma-sweep")
    ranks = p61.s - kernel_dims(ctx6, p61)[0]
    first = np.flatnonzero(ranks == 4)[0]  # (0, 0) has rank 0
    alpha, beta = representatives(ctx6, p61)[first]
    assert code == 2 and record["status"] == "mismatch"
    assert record["detail"] == (f"pair ({alpha:#x}, {beta:#x}) deviates from "
                                f"the rank-4 law")

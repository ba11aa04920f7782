"""Exponential sums: brute-force spectra against closed-form tables."""

import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from kasamilab import (ValueDistribution, VerificationError,
                       artin_schreier_points, build_field, derive_params,
                       expsum, gamma_sweep_formula, kernel_dims,
                       moment_targets, moments, rank_profile, s_spectrum,
                       s_spectrum_formula, subfield_elements, t_spectrum,
                       t_spectrum_formula)
from kasamilab.cli import main
from kasamilab.field import (FieldContext, _cycles, bit_count, power_table,
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


def test_int16_and_int32_walsh_agree(ctx6, p61, monkeypatch):
    # Moving the rank of a pair in either of the two rows makes the
    # gamma-sweep name it, with the same message on either dtype.
    rows = pair_rows(ctx6, p61)
    ctx8, p8 = build_field(8), derive_params(8, 2)

    def named(alpha, beta):
        dims = kernel_dims(ctx8, p8)
        dims[alpha, beta] += 2
        with pytest.raises(VerificationError) as raised:
            expsum.gamma_sweep(ctx8, p8, dims)
        return str(raised.value)

    pairs = [(0, 3), (1, ctx8.q - 1)]
    narrow = expsum._walsh(rows), [named(*pair) for pair in pairs]
    monkeypatch.setattr(expsum, "_walsh_dtype", lambda n: np.int32)
    wide = expsum._walsh(rows), [named(*pair) for pair in pairs]
    assert (narrow[0].dtype, wide[0].dtype) == (np.int16, np.int32)
    assert (narrow[0] == wide[0]).all()
    assert narrow[1] == wide[1]
    for (alpha, beta), message in zip(pairs, narrow[1]):
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
    # A span holds 512 beta rows of 4096 bits, 256 kB packed. They are built
    # and packed 128 rows at a time (512 kB unpacked), XORed with the 64
    # alpha rows (32 kB packed) and popcounted per alpha row, and the span's
    # T table is 64 x 512 int64, 256 kB. An unpacked span, or an int64
    # product of element logs over every alpha row, takes 2 MB alone.
    ctx, p = build_field(12), derive_params(12, 1)
    assert traced_peak(t_spectrum, ctx, p) < 2 * (1 << 20)


def test_alpha_rows_take_no_more_than_their_table():
    # The 128 alpha rows at (14,1) are 2 MB of uint8 bits. Each is written
    # straight into the table from one product of logs and one gather of
    # q entries; the products of every alpha row at once take 16 MB. The
    # field's cached tables (power maps, logs, traces) are built first.
    ctx, p = build_field(14), derive_params(14, 1)
    alphas = subfield_elements(ctx, p.m)
    expsum._trace_rows(ctx, p, alphas[:2], [], [])
    assert traced_peak(expsum._trace_rows, ctx, p, alphas, [], []) \
        < 3 * (1 << 20)


def test_s_sweep_memory_bounded_by_its_span():
    # Each of the two sweeps takes all 1024 beta rows as one span, 128 kB
    # packed, built and packed 512 rows (512 kB unpacked) at a time. The
    # closure proofs compare the beta and gamma rows in blocks of 512: a
    # block read at pi x, the block of its images and their comparison,
    # 1.5 MB. The q x q beta rows, unpacked, take 1 MB alone.
    ctx, p = build_field(10), derive_params(10, 1)
    assert traced_peak(s_spectrum, ctx, p) < 6 * (1 << 19)


def test_gamma_sweep_memory_bounded_by_its_span():
    # A span transforms 512 beta rows of 1024 entries, 2^19: their uint8 bits
    # gathered and XORed (2 x 0.5 MB), the int16 transform and its butterfly
    # buffer (2 MB) and one bool comparison (0.5 MB); the closure proof
    # builds the beta rows a span at a time. A q x q block per alpha needs
    # 8 MB.
    ctx, p = build_field(10), derive_params(10, 1)
    dims = kernel_dims(ctx, p)
    assert traced_peak(expsum.gamma_sweep, ctx, p, dims) < 12 * (1 << 19)


@pytest.mark.parametrize("alpha,beta", [(0, 511), (0, 1023), (1, 511),
                                        (1, 1023)])
def test_gamma_sweep_reads_every_pair_of_every_block(alpha, beta):
    # At n = 10 a block holds 512 betas, so each of the rows alpha = 0 and
    # alpha = 1 has two. Moving the rank of the last pair of any one block
    # makes the sweep name that pair.
    ctx, p = build_field(10), derive_params(10, 1)
    dims = kernel_dims(ctx, p)
    dims[alpha, beta] += 2
    message = (f"pair ({alpha:#x}, {beta:#x}) deviates from the "
               f"rank-{p.s - dims[alpha, beta]} law")
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        expsum.gamma_sweep(ctx, p, dims)


def orbit_representatives(ctx, params):
    """a' = 0 and pi^j for 0 <= j <= 2^m, one per orbit of a' -> a' pi^e1."""
    return [0] + [ctx.pow(ctx.pi, j) for j in range((1 << params.m) + 1)]


def identity_points(ctx, params):
    """A stand-in for artin_schreier_points: the counts read off the
    identity, q + (2^d - 1) T(Tr^n_m(a'), beta), through the popcount
    kernel."""
    sub = subfield_elements(ctx, params.m)
    t = t_table(ctx, params, sub, range(ctx.q))
    traces = rel_trace_table(ctx, params.m, params.n)

    def counts(ctx, params, alpha_prime, betas):
        return ctx.q + ((1 << params.d) - 1) * t[
            sub.index(traces[alpha_prime]), betas]
    return counts


def test_artin_schreier_sweep_counts_every_curve_once_per_block(
        monkeypatch):
    # Each call counts the curves of one a' over at most one block of betas;
    # together the calls count the curves of every orbit representative
    # a', against every beta, each once, and no other curve.
    ctx, p = build_field(10), derive_params(10, 1)
    calls, counted = [], np.zeros((ctx.q, ctx.q), dtype=np.int64)
    identity = identity_points(ctx, p)

    def recording(ctx, params, alpha_prime, betas):
        calls.append(len(betas))
        np.add.at(counted[alpha_prime], betas, 1)
        return identity(ctx, params, alpha_prime, betas)

    monkeypatch.setattr(expsum, "artin_schreier_points", recording)
    assert expsum.artin_schreier_sweep(ctx, p) is None
    reps = orbit_representatives(ctx, p)
    assert len(set(reps)) == (1 << p.m) + 2
    assert max(calls) <= (1 << 19) // ctx.q
    assert (counted[reps] == 1).all()
    assert counted.sum() == len(reps) * ctx.q


def test_artin_schreier_sweep_names_the_curve_in_the_last_block(
        monkeypatch):
    # Counts read off the identity, with one point more on the last curve
    # of the last block, that of the last orbit representative: it is
    # named.
    ctx, p = build_field(10), derive_params(10, 1)
    identity = identity_points(ctx, p)
    last = orbit_representatives(ctx, p)[-1]

    def one_more(ctx, params, alpha_prime, betas):
        counts = identity(ctx, params, alpha_prime, betas)
        counts[betas == ctx.q - 1] += alpha_prime == last
        return counts

    monkeypatch.setattr(expsum, "artin_schreier_points", one_more)
    want = int(identity(ctx, p, last, np.array([ctx.q - 1]))[0])
    message = (f"({last:#x}, {ctx.q - 1:#x}): {want + 1} points, identity "
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


def test_s_spectrum_reads_no_walsh_transform(ctx6, p61, monkeypatch):
    def refused(bits):
        raise AssertionError("S transformed a row")

    monkeypatch.setattr(expsum, "_walsh", refused)
    assert s_spectrum(ctx6, p61).as_dict() == S_SPECTRA[(6, 1)]


def flip_row_bit(monkeypatch, axis, coeff, x=3):
    """Patch the trace rows: flip bit x of coeff's alpha (axis 0) or beta
    (axis 1) row."""
    build = expsum._trace_rows

    def flipped(ctx, params, *coeffs):
        rows = build(ctx, params, *coeffs)
        rows[axis][np.asarray(coeffs[axis], dtype=np.int64) == coeff, x] ^= 1
        return rows

    monkeypatch.setattr(expsum, "_trace_rows", flipped)


# The orbit proofs are made once per field, so every test that patches a row
# builder reads a field of its own, on which nothing has been proved yet.

@pytest.mark.parametrize("axis,name", [(0, "alpha"), (1, "beta")])
def test_flipped_bit_breaks_the_times_pi_closure(monkeypatch, axis, name):
    ctx, p = build_field(6), derive_params(6, 1)
    coeff = subfield_elements(ctx, 3)[2] if axis == 0 else 5
    flip_row_bit(monkeypatch, axis, coeff)
    with pytest.raises(VerificationError,
                       match=f"{name} rows are not closed under x -> pi x"):
        s_spectrum(ctx, p)


@pytest.mark.parametrize("sweep", ["gamma_sweep", "artin_schreier_sweep"])
@pytest.mark.parametrize("axis,name", [(0, "alpha"), (1, "beta")])
def test_per_pair_checks_need_the_trace_rows_closed_under_pi(
        monkeypatch, sweep, axis, name):
    # alpha = 1 stands for every alpha != 0 only on that licence.
    ctx, p = build_field(6), derive_params(6, 1)
    args = (kernel_dims(ctx, p),) if sweep == "gamma_sweep" else ()
    coeff = subfield_elements(ctx, 3)[2] if axis == 0 else 5
    flip_row_bit(monkeypatch, axis, coeff)
    with pytest.raises(VerificationError,
                       match=f"{name} rows are not closed under x -> pi x"):
        getattr(expsum, sweep)(ctx, p, *args)


def test_row_closure_needs_both_maps_to_permute():
    # Row i of the identity read at the swap of 0 and 1 is the row of the
    # swap of i; a perm that sends two entries to one is no licence, whatever
    # the rows read. The coefficient map is checked by `_orbit_closure`.
    rows, ids, swap = np.eye(4, dtype=np.uint8), np.arange(4), [1, 0, 2, 3]
    def build(coeffs):
        return rows[coeffs]

    expsum._row_closure(build, ids, ids, ids, "unit")
    expsum._row_closure(build, ids, np.array(swap), np.array(swap), "unit")
    with pytest.raises(VerificationError,
                       match="unit rows are not closed under x -> pi x"):
        expsum._row_closure(build, ids, ids, np.array(swap), "unit")
    with pytest.raises(VerificationError,
                       match="x -> pi x does not permute the unit rows"):
        expsum._row_closure(build, ids, ids, np.array([0, 0, 2, 3]), "unit")


@pytest.mark.parametrize("curves", [False, True], ids=["trace", "value"])
def test_orbit_closure_needs_the_coefficient_map_to_permute(
        monkeypatch, curves):
    # pi^e patched to 0 sends every coefficient to 0. Only the zero rows are
    # compared when the lists hold 0 alone, and they agree, so the map is
    # refused on the full coefficient table, whatever the lists.
    ctx, p = build_field(6), derive_params(6, 1)
    monkeypatch.setattr(FieldContext, "pow", lambda self, a, e: 0)
    for listed in (None, [0]):
        with pytest.raises(VerificationError,
                           match="x -> pi x does not permute the .* rows"):
            expsum._orbit_closure(ctx, p, curves, alphas=listed,
                                  betas=listed)


def record_row_closures(monkeypatch):
    """(table name, number of coefficients) of every `_row_closure` call: one
    per table proof, "alpha" and "beta" on the trace rows, "a' x^e1" and
    "beta x^e2" on the value rows."""
    calls, compare = [], expsum._row_closure

    def recorded(build, coeffs, images, perm, name):
        calls.append((name, len(coeffs)))
        return compare(build, coeffs, images, perm, name)

    monkeypatch.setattr(expsum, "_row_closure", recorded)
    return calls


def test_verify_proves_each_orbit_law_once(tmp_path, monkeypatch):
    # s-spectrum, gamma-sweep, artin-schreier and cyclicity (c1, c2) read the
    # trace-row proofs; kernel_dims reads the a' rows over GF(8) and the beta
    # rows, artin-schreier the a' rows over GF(64) and the same beta rows.
    calls = record_row_closures(monkeypatch)
    assert main(["verify", "--n", "6", "--k", "1",
                 "--out", str(tmp_path)]) == 3
    assert Counter(calls) == {("alpha", 8): 1, ("beta", 64): 1,
                              ("a' x^e1", 8): 1, ("a' x^e1", 64): 1,
                              ("beta x^e2", 64): 1}


def test_verify_proves_the_cyclicity_sample_once(tmp_path, monkeypatch):
    # Above n = 6 both codes' cyclicity lists the same sample of 4 alphas
    # and 9 betas; c1 proves it and c2 reads that proof.
    calls = record_row_closures(monkeypatch)
    assert main(["verify", "--n", "8", "--k", "2",
                 "--out", str(tmp_path)]) == 3
    assert Counter(calls)[("alpha", 4)] == Counter(calls)[("beta", 9)] == 1


@pytest.mark.parametrize("curves,alpha,beta",
                         [(False, "alpha", "beta"),
                          (True, "a' x^e1", "beta x^e2")],
                         ids=["trace", "value"])
def test_orbit_proof_is_kept_per_k(monkeypatch, curves, alpha, beta):
    # One field serves k = 1 and k = 2: the alpha (a') rows do not depend on
    # k and are proved once, while the (6,1) beta proof does not stand for
    # the (6,2) one, and each is made once.
    ctx = build_field(6)
    calls = record_row_closures(monkeypatch)
    for k in (1, 1, 2, 2, 1):
        expsum._orbit_closure(ctx, derive_params(6, k), curves)
    assert [name for name, _ in calls] == [alpha, beta, beta]


def test_a_proof_that_raised_is_made_again(monkeypatch):
    ctx, p = build_field(6), derive_params(6, 1)
    flip_row_bit(monkeypatch, 1, 5)
    for _ in range(2):
        with pytest.raises(VerificationError,
                           match="beta rows are not closed under x -> pi x"):
            expsum._orbit_closure(ctx, p)
    monkeypatch.undo()
    calls = record_row_closures(monkeypatch)
    expsum._orbit_closure(ctx, p)
    expsum._orbit_closure(ctx, p)
    assert calls == [("beta", 64)]


def test_listed_coefficients_are_proved_once_per_list(monkeypatch):
    # Cyclicity's sample above n = 6 lists its coefficients; each list is
    # proved once, beside the full proof, and a new list is proved anew.
    ctx, p = build_field(6), derive_params(6, 1)
    calls = record_row_closures(monkeypatch)
    for listed in (None, [0, 1], [0, 1], None, [0, 24]):
        expsum._orbit_closure(ctx, p, alphas=listed, betas=listed)
    assert calls == [("alpha", 8), ("beta", 64), ("alpha", 2), ("beta", 2),
                     ("alpha", 2), ("beta", 2)]


def test_verify_records_a_broken_times_pi_closure(tmp_path, monkeypatch):
    flip_row_bit(monkeypatch, 1, 5)
    assert main(["verify", "--n", "6", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    record = next(r for r in report["records"] if r["name"] == "s-spectrum")
    assert record["status"] == "mismatch"
    assert "not closed under x -> pi x" in record["detail"]


def flip_value_bit(monkeypatch, h, coeff, x=3):
    """Patch the value rows c x^(2^h+1) where the orbit proof builds them
    as a table: flip bit 0 of coeff's row at x."""
    build = expsum._monomial_rows

    def flipped(ctx, coeffs, hh):
        rows = build(ctx, coeffs, hh)
        if hh == h and np.ndim(coeffs) == 1:
            rows[np.asarray(coeffs) == coeff, x] ^= 1
        return rows

    monkeypatch.setattr(expsum, "_monomial_rows", flipped)


@pytest.mark.parametrize("h,coeff,name", [(3, 24, "a' x^e1"),
                                          (1, 5, "beta x^e2")],
                         ids=["a-prime", "beta"])
def test_kernel_dims_needs_the_value_rows_closed_under_pi(
        monkeypatch, h, coeff, name):
    # The kernel sizes read the phi rows off the unpatched value rows: only
    # the orbit proof sees the flipped entry. They read a' in GF(8) only,
    # so the flipped a' row, 24, is one of GF(8) inside GF(64).
    flip_value_bit(monkeypatch, h, coeff)
    with pytest.raises(VerificationError,
                       match=re.escape(f"{name} rows are not closed")):
        kernel_dims(build_field(6), derive_params(6, 1))


@pytest.mark.parametrize("h,coeff,name", [(3, 7, "a' x^e1"),
                                          (1, 5, "beta x^e2")],
                         ids=["a-prime", "beta"])
def test_artin_schreier_needs_the_value_rows_closed_under_pi(
        monkeypatch, h, coeff, name):
    flip_value_bit(monkeypatch, h, coeff)
    with pytest.raises(VerificationError,
                       match=re.escape(f"{name} rows are not closed")):
        expsum.artin_schreier_sweep(build_field(6), derive_params(6, 1))


def test_verify_records_a_broken_value_row(tmp_path, monkeypatch):
    # Only the kernel sizes and the point counts read the value rows.
    flip_value_bit(monkeypatch, 1, 5)
    assert main(["verify", "--n", "6", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    failed = {r["name"]: r["detail"] for r in report["records"]
              if r["status"] == "mismatch"}
    assert list(failed) == ["rank-profile", "gamma-sweep", "artin-schreier"]
    assert all("beta x^e2 rows are not closed under x -> pi x" in detail
               for detail in failed.values())


VALID_NK = [(n, k) for n in (4, 6, 8) for k in range(1, n) if k != n // 2]


@pytest.mark.parametrize("n,k", VALID_NK)
def test_orbit_rule_matches_the_full_tables(n, k):
    # The two kernel rows give the rank profile of the full table, and the
    # gamma-sweep and Artin-Schreier, on orbit representatives, find no
    # pair or curve off its law (they return without raising), as the
    # sweeps over every pair do.
    ctx, p = build_field(n), derive_params(n, k)
    dims, full = kernel_dims(ctx, p), ref.kernel_dims(ctx, p)
    profile = Counter(full.ravel()[1:].tolist())
    assert rank_profile(dims, p) == (profile[0], profile[2], profile[4])
    assert expsum.gamma_sweep(ctx, p, dims) is None
    assert ref.gamma_sweep(ctx, p, full) == []
    if p.d_prime == 2 * p.d:
        assert expsum.artin_schreier_sweep(ctx, p) is None
        assert ref.artin_schreier_sweep(ctx, p) == []


@pytest.mark.slow
def test_artin_schreier_orbit_rule_matches_the_full_sweep_n10():
    ctx, p = build_field(10), derive_params(10, 1)
    assert expsum.artin_schreier_sweep(ctx, p) is None
    assert ref.artin_schreier_sweep(ctx, p) == []


@pytest.mark.parametrize("n", range(4, 13, 2))
def test_popcounts_count_the_xor_of_every_row_pair(n):
    # u2 words at n = 4, u8 words from n = 6.
    rng = np.random.default_rng(n)
    a = rng.integers(0, 2, (5, 1 << n), dtype=np.uint8)
    b = rng.integers(0, 2, (7, 1 << n), dtype=np.uint8)
    popcounts = expsum._popcounts(np.packbits(a, axis=-1),
                                  np.packbits(b, axis=-1))
    assert (popcounts == (a[:, None] ^ b[None]).sum(-1)).all()


def t_table(ctx, params, alphas, betas):
    """T(alpha, beta) through the sweep's popcount kernel, one row per
    alpha."""
    arows, _, _ = expsum._trace_rows(ctx, params, alphas, [], [])
    return expsum._t_table(ctx, params, np.packbits(arows, axis=-1), betas)


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
    assert type(artin_schreier_points(ctx6, p61, 1, 2)) is int
    betas = np.arange(ctx6.q)
    for alpha_prime in range(ctx6.q):
        counts = artin_schreier_points(ctx6, p61, alpha_prime, betas)
        assert counts.tolist() == [
            artin_schreier_points(ctx6, p61, alpha_prime, beta)
            for beta in range(ctx6.q)]


def verify_record(tmp_path, name, n=6, k=1):
    code = main(["verify", "--n", str(n), "--k", str(k),
                 "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    return code, next(r for r in report["records"] if r["name"] == name)


def test_verify_names_the_curve_off_the_identity(tmp_path, monkeypatch,
                                                 ctx6, p61):
    def one_point_more(ctx, params, alpha_prime, betas):
        counts = artin_schreier_points(ctx, params, alpha_prime, betas)
        if alpha_prime == 0x3:
            counts[0x5] += 1
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
    # A rank-4 law with one zero turned into a +peak: the first pair of rank
    # 4, alpha in subfield order and then beta, is the one named.
    def moved(params, rank):
        counts = gamma_sweep_formula(params, rank).as_dict()
        if rank == 4:
            counts[0] -= 1
            counts[max(counts)] += 1
        return ValueDistribution.from_counts(counts)

    monkeypatch.setattr("kasamilab.expsum.gamma_sweep_formula", moved)
    code, record = verify_record(tmp_path, "gamma-sweep")
    ranks = p61.s - kernel_dims(ctx6, p61)
    first = np.flatnonzero(ranks.ravel() == 4)[0]  # (0, 0) has rank 0
    alpha = subfield_elements(ctx6, 3)[first // ctx6.q]
    beta = first % ctx6.q
    assert code == 2 and record["status"] == "mismatch"
    assert record["detail"] == (f"pair ({alpha:#x}, {beta:#x}) deviates from "
                                f"the rank-4 law")

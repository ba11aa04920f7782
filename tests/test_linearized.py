"""Kernel sizes, rank profiles, auxiliary root counts, and their closed forms."""

import json
from collections import Counter
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from kasamilab import (VerificationError, bluher_counts, bluher_counts_formula,
                       build_field, derive_params, kernel_dims,
                       linearized, rank_profile, rank_profile_formula,
                       subfield_elements)
from kasamilab.cli import main
from kasamilab.field import _mul, power_table
from test_expsum import orbit_betas, representatives, traced_peak

# (n, k) -> (n0, n2, n4), frozen from the naive kernel enumeration.
PROFILES = {
    (4, 1): (28, 35, 0),
    (6, 1): (280, 210, 21),
    (6, 2): (196, 315, 0),
}


@pytest.mark.parametrize("nk,expected", sorted(PROFILES.items()))
def test_rank_profile_frozen(nk, expected):
    n, k = nk
    ctx, p = build_field(n), derive_params(n, k)
    prof = rank_profile(kernel_dims(ctx, p))
    assert prof == expected
    assert sum(prof) == (1 << p.m) * (1 << n) - 1


@pytest.mark.parametrize("nk", sorted(PROFILES))
def test_rank_profile_matches_formula(nk):
    n, k = nk
    p = derive_params(n, k)
    assert rank_profile(kernel_dims(build_field(n), p)) == \
        rank_profile_formula(p)


@pytest.mark.slow
def test_rank_profile_frozen_n8():
    p = derive_params(8, 2)
    assert rank_profile(kernel_dims(build_field(8), p)) == (3024, 1071, 0)
    assert rank_profile_formula(derive_params(8, 2)) == (3024, 1071, 0)


def phi_rows(ctx, params, alpha, betas):
    """The phi rows of one alpha, one row per beta."""
    return linearized._phi_rows(ctx, params, alpha, betas)


def test_kernel_size_matches_oracle(ctx4, p41):
    # One dimension per orbit representative, with its orbit's size.
    dims, weights = kernel_dims(ctx4, p41)
    pairs = representatives(ctx4, p41)
    assert len(dims) == len(weights) == len(pairs)
    assert weights.sum() == 1 << (3 * p41.m)
    for (alpha, beta), dim in zip(pairs[1:], dims[1:].tolist()):
        assert p41.q0 ** dim == \
            ref.kernel_count_naive(alpha, beta, 1, 0x13, 4)


def test_kernel_profile_matches_oracle(ctx6, p61):
    naive = ref.kernel_profile_naive(1, 0x43, 6)
    # q0-dimension 0/2/4 <-> kernel size q0^0/q0^2/q0^4.
    assert rank_profile(kernel_dims(ctx6, p61)) == \
        (naive[1], naive[4], naive[16])


def test_rank_of_consistent_with_kernel(ctx6, p61):
    sub = subfield_elements(ctx6, 3)
    dims = ref.kernel_dims(ctx6, p61)
    for alpha, beta in [(0, 1), (1, 0), (sub[2], 5), (sub[3], 40), (1, 63)]:
        dim = int(dims[sub.index(alpha), beta])
        assert dim in (0, 2, 4)
        phi = phi_rows(ctx6, p61, alpha, [beta])[0]
        assert np.count_nonzero(phi == 0) == p61.q0 ** dim


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=60)
def test_phi_is_additive(beta, x, y):
    ctx, p = build_field(4), derive_params(4, 1)
    phi = phi_rows(ctx, p, 1, [beta])[0]
    assert phi[x] ^ phi[y] == phi[x ^ y]


def test_kernel_is_q0_subspace(ctx4, p41):
    sub = subfield_elements(ctx4, 2)
    for alpha in sub:
        phi = phi_rows(ctx4, p41, alpha, range(16))
        for beta in range(16):
            if alpha == 0 and beta == 0:
                continue
            roots = np.flatnonzero(phi[beta] == 0).tolist()
            elems = set(roots)
            assert 0 in elems
            for x in roots:  # closed under addition => GF(q0)-subspace here
                for y in roots:
                    assert x ^ y in elems


def test_psi_roots_match_oracle(ctx4, p41):
    joint = {}
    dims = ref.kernel_dims(ctx4, p41)
    for alpha, row in zip(subfield_elements(ctx4, 2), dims.tolist()):
        for beta in range(1, 16):
            if alpha == 0:
                continue
            cnt = ref.psi_roots_naive(alpha, beta, 1, 0x13, 4)
            key = (cnt, p41.q0 ** row[beta])
            joint[key] = joint.get(key, 0) + 1
    # Root count 0 pairs with trivial kernel, 2^d+1 with the 4-element kernel.
    assert joint == {(0, 1): 15, (3, 4): 30}


# (l, h) -> (n0, n1, n2, n_top), frozen from the naive root histogram.
BLUHER = {
    (4, 1): (5, 8, 0, 2),
    (4, 2): (6, 4, 5, 0),
    (4, 3): (5, 8, 0, 2),
    (6, 1): (21, 32, 0, 10),
    (6, 2): (26, 15, 21, 1),
    (6, 3): (28, 8, 27, 0),
    (6, 4): (26, 15, 21, 1),
    (6, 5): (21, 32, 0, 10),
}


@pytest.mark.parametrize("lh,expected", sorted(BLUHER.items()))
def test_bluher_frozen_both_ways(lh, expected):
    l, h = lh
    bc = bluher_counts(build_field(l), h)
    assert bc == expected
    assert bluher_counts_formula(l, h) == expected
    assert sum(bc) == (1 << l) - 1


@pytest.mark.parametrize("l", [4, 6])
def test_bluher_matches_oracle_histogram(l):
    mod = ref.smallest_primitive(l)
    ctx = build_field(l)
    for h in range(1, l):
        hist = Counter(ref.bluher_naive(b, h, mod, l)
                       for b in range(1, 1 << l))
        top = (1 << gcd(h, l)) + 1
        assert bluher_counts(ctx, h) == (hist[0], hist[1], hist[2], hist[top])


def bluher_per_b(ctx, h):
    """Root-count histogram over b != 0, one evaluation at every z per b."""
    z = np.arange(1, ctx.q, dtype=np.int64)
    pz = power_table(ctx, (1 << h) + 1)[z]
    return Counter(int(np.count_nonzero((pz ^ _mul(ctx, b, z) ^ b) == 0))
                   for b in range(1, ctx.q))


def test_bluher_matches_per_b_loop_n8(ctx8):
    for h in range(1, 8):
        hist = bluher_per_b(ctx8, h)
        top = (1 << gcd(h, 8)) + 1
        assert set(hist) <= {0, 1, 2, top}
        assert bluher_counts(ctx8, h) == (hist[0], hist[1], hist[2], hist[top])


def test_bluher_rejects_a_pair_that_is_no_root(ctx4, monkeypatch):
    # Two swapped inverses send z = 2 and z = 3 to the wrong b.
    table = linearized.power_table

    def swapped(ctx, e):
        out = table(ctx, e)
        if e == ctx.order - 1:
            out = out.copy()
            out[[2, 3]] = out[[3, 2]]
        return out

    monkeypatch.setattr(linearized, "power_table", swapped)
    with pytest.raises(VerificationError, match="not a root"):
        bluher_counts(ctx4, 1)


def test_bluher_rejects_a_root_count_outside_the_four(ctx4, monkeypatch):
    # z^3 = 7 (z + 1) at z = 2..5 makes b = 7 one b with at least 4 roots.
    table = linearized.power_table

    def forced(ctx, e):
        out = table(ctx, e)
        if e == 3:
            out = out.copy()
            out[2:6] = [ctx.mul(7, z ^ 1) for z in range(2, 6)]
        return out

    monkeypatch.setattr(linearized, "power_table", forced)
    with pytest.raises(VerificationError, match=r"b=7: \d+ roots, outside"):
        bluher_counts(ctx4, 1)


@pytest.mark.slow
def test_bluher_formula_n8():
    ctx = build_field(8)
    for h in range(1, 8):
        assert bluher_counts(ctx, h) == bluher_counts_formula(8, h)


def test_kernel_size_off_a_q0_power_is_rejected(ctx4, p41, monkeypatch):
    # (1, 2) has a 4-element kernel at (4, 1); one extra zero makes 5.
    assert p41.q0 ** linearized._kernel_dims(ctx4, p41, 1, [2])[0] == 4
    build = linearized._phi_rows

    def one_more_zero(*args):
        rows = build(*args)
        for row in rows:
            nonzero = np.flatnonzero(row)
            if len(nonzero):
                row[nonzero[0]] = 0
        return rows

    monkeypatch.setattr(linearized, "_phi_rows", one_more_zero)
    with pytest.raises(VerificationError, match="not a power of q0"):
        linearized._kernel_dims(ctx4, p41, 1, [2])
    with pytest.raises(VerificationError, match="not a power of q0"):
        kernel_dims(ctx4, p41)


def patch_phi_row(monkeypatch, alpha, beta, edit):
    """Patch the phi rows: apply edit(row) in place to (alpha, beta)'s row."""
    build = linearized._phi_rows

    def edited(ctx, params, a, betas):
        rows = build(ctx, params, a, betas)
        if a == alpha:
            for i in np.flatnonzero(np.asarray(betas) == beta):
                edit(rows[i])
        return rows

    monkeypatch.setattr(linearized, "_phi_rows", edited)


def test_kernel_table_memory_bounded_by_its_span():
    # alpha = 1 reads 94 beta representatives at n = 10, 0.75 MB of int64
    # phi values in one block of the orbit rule (at most 256 rows); with
    # the products that build them and the linearity check's gathers,
    # 2.4 MB traced, the field's tables included, under 4 MB. Blocks of
    # every beta, as a 2^22-entry rule gives at n = 10, peak at 24 MB.
    ctx, p = build_field(10), derive_params(10, 1)
    assert traced_peak(kernel_dims, ctx, p) < (1 << 19) * 8


def swap_a_kernel_element(row):
    """Swap phi at the least nonzero kernel element with phi at the least
    element outside the kernel: the zero set keeps its size but loses 0's
    sums."""
    u, v = np.flatnonzero(row == 0)[1], np.flatnonzero(row)[0]
    row[[u, v]] = row[[v, u]]


def four_element_kernel(ctx6, p61):
    """The first beta representative of alpha = 1 whose phi has a
    4-element kernel."""
    (_, zero, _), (_, betas, _) = orbit_betas(ctx6, p61)
    dims = kernel_dims(ctx6, p61)[0][len(zero):]
    return 1, int(betas[np.flatnonzero(p61.q0 ** dims == 4)[0]])


def test_rank_profile_rejects_a_kernel_not_closed(ctx6, p61, monkeypatch):
    alpha, beta = four_element_kernel(ctx6, p61)
    patch_phi_row(monkeypatch, alpha, beta, swap_a_kernel_element)
    zeros = set(np.flatnonzero(
        phi_rows(ctx6, p61, alpha, [beta])[0] == 0).tolist())
    assert len(zeros) == 4
    assert any(u ^ v not in zeros for u in zeros for v in zeros)
    with pytest.raises(VerificationError,
                       match=rf"phi_\({alpha:#x}, {beta:#x}\) is not "
                             r"GF\(2\)-linear"):
        kernel_dims(ctx6, p61)
    with pytest.raises(VerificationError, match="not GF"):
        linearized._kernel_dims(ctx6, p61, alpha, [beta])


def test_rank_profile_rejects_a_kernel_not_gf_q0_stable(ctx8, p82,
                                                        monkeypatch):
    # x -> x with its four low bits cleared is GF(2)-linear, and its kernel,
    # the masks below 16, has q0^2 = 16 elements, but it is no GF(4)-subspace.
    assert any(ctx8.mul(lam, u) >= 16 for lam in subfield_elements(ctx8, 2)
               for u in range(16))

    def clear_low_bits(row):
        row[:] = np.arange(len(row)) & ~15

    patch_phi_row(monkeypatch, 1, 1, clear_low_bits)
    with pytest.raises(VerificationError,
                       match=r"phi_\(0x1, 0x1\) is not GF\(4\)-linear"):
        kernel_dims(ctx8, p82)


def test_verify_records_a_kernel_not_closed(tmp_path, monkeypatch, ctx6,
                                            p61):
    patch_phi_row(monkeypatch, *four_element_kernel(ctx6, p61),
                  swap_a_kernel_element)
    assert main(["verify", "--n", "6", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    status = {r["name"]: r["status"] for r in report["records"]}
    assert status["rank-profile"] == status["gamma-sweep"] == "mismatch"
    assert [name for name, s in status.items() if s == "mismatch"] == [
        "rank-profile", "gamma-sweep"]

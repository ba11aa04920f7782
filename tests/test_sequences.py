"""Sequence family construction and correlation distributions."""

import json
import os
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import reference as ref
from kasamilab import (SequenceFamily, VerificationError, build_family,
                       build_field, correlation_distribution,
                       correlation_distribution_formula,
                       correlation_table_printed, derive_params,
                       family_dump_lines, family_size, pack_bits_hex)
from kasamilab.cli import main
from kasamilab.sequences import (_decimation_orbits, _shifts_per_column,
                                 _thread_count, _value_counts)
from test_expsum import traced_peak

# Frozen from the brute-force all-pairs-all-shifts sweep.
CORRELATIONS = {
    (4, 1): {-9: 2306, -5: 11044, -1: 28598, 3: 18418, 7: 6902, 15: 67},
    (6, 1): {-33: 10752, -17: 634880, -9: 3952640, -1: 5745664,
             7: 5079040, 15: 1059840, 31: 31744, 63: 512},
    (6, 2): {-17: 982560, -9: 2853064, -1: 7893232, 7: 3668224,
             15: 1637600, 63: 520},
}
SIZES = {(4, 1): 67, (6, 1): 512, (6, 2): 520, (8, 2): 4111}

# The misprint reconciliation notes are part of the contract; frozen verbatim.
NOTES_61 = (
    "tabulated values match derived counts only after subtracting 1 "
    "(kappa = tabulated value - 1); offset applied for comparison",
    "tabulated multiplicity 74240 at kappa=-33 disagrees with derived 10752",
    "tabulated value 8 appears twice under the applied offset; its "
    "multiplicity 512 equals the derived count at 63, the likely intended value",
    "tabulated multiplicities total 16578560, expected 16515072",
    "derived kappa=63 (count 512) has no tabulated row",
)
NOTES_82 = (
    "tabulated multiplicity at value -17 is not a natural number: "
    "4474242094/3; its deficit against the derived count equals "
    "(2^(m+2d) - 2^(m+d) - 2^(m+1))/(2^(2d) - 1), an expression that "
    "vanishes only at d = 1",
    "tabulated multiplicities total 12928745533/3, expected 4309581855",
)


def bits_of(family):
    """The members' bits, one uint8 row of 2^n - 1 per member."""
    return np.unpackbits(family.rows, axis=1, count=family.params.q - 1,
                         bitorder="little")


def all_pairs_sweep(family):
    """Correlation histogram of every pair at every shift, shift by shift."""
    signs = 1 - 2 * bits_of(family).astype(np.float32)
    L = signs.shape[1]
    hist = np.zeros(2 * L + 1, dtype=np.int64)
    for tau in range(L):
        prod = signs @ np.roll(signs, -tau, axis=1).T
        hist += np.bincount((prod + L).astype(np.intp).ravel(),
                            minlength=2 * L + 1)
    return {v - L: int(c) for v, c in enumerate(hist) if c}


def orbits_of(family):
    """_decimation_orbits of the family's packed rows."""
    return _decimation_orbits(family.rows, family.params.q - 1)


def one_shift_orbit_sweep(family):
    """The decimation-orbit sweep with one shift per product column.

    Every entry of signs @ circ is Corr + L, read off a bincount over
    [0, 2L]; products in float64.
    """
    mats = bits_of(family)
    count, L = mats.shape
    orbit, sizes = orbits_of(family)
    signs = np.ones((count, L + 1))
    signs[:, :L] -= 2 * mats[np.argsort(orbit, kind="stable")]
    hist = np.zeros(2 * L + 1, dtype=np.int64)
    first = 0
    for w in sizes:
        rep = signs[first, :L]
        circ = np.full((L + 1, L), float(L))
        circ[:L] = sliding_window_view(np.concatenate([rep, rep[:-1]]), L)
        idx = (signs[first:] @ circ).astype(np.intp)
        hist += w * np.bincount(idx[:w].ravel(), minlength=2 * L + 1)
        hist += 2 * w * np.bincount(idx[w:].ravel(), minlength=2 * L + 1)
        first += w
    return {v - L: int(c) for v, c in enumerate(hist) if c}


def flipped_family(family, index=5, bit=1):
    """The family with one bit of one member flipped."""
    rows = family.rows.copy()
    rows[index, bit // 8] ^= 1 << bit % 8
    return replace(family, rows=rows)


@pytest.mark.parametrize("nk,size", sorted(SIZES.items()))
def test_family_size(nk, size):
    assert family_size(derive_params(*nk)) == size


@pytest.mark.parametrize("nk", [(4, 1), (6, 1), (6, 2)])
def test_family_build(nk):
    n, k = nk
    fam = build_family(build_field(n), derive_params(n, k))
    assert fam.size == family_size(fam.params) == SIZES[nk]
    assert bits_of(fam).shape == (fam.size, (1 << n) - 1)
    # Packed eight to a byte, the one bit past the period left 0.
    assert fam.rows.shape == (fam.size, 1 << (n - 3))
    assert not (fam.rows[:, -1] >> 7).any()


def test_family_is_built_in_place():
    # The blocks are written into one matrix the size of the family (4 MB
    # here), the working rows taking about 10% more; joining the blocks
    # afterwards copies the whole family once more.
    ctx, p = build_field(10), derive_params(10, 1)
    fam = build_family(ctx, p)
    assert traced_peak(build_family, ctx, p) < 1.5 * fam.rows.nbytes


def test_family_of_the_wrong_size_is_refused(ctx6, p61, monkeypatch):
    monkeypatch.setattr("kasamilab.sequences.family_size",
                        lambda params: 513)
    with pytest.raises(VerificationError,
                       match="^family has 512 members, expected 513$"):
        build_family(ctx6, p61)


@pytest.mark.parametrize("n,k,mod", [(4, 1, 0x13), (6, 1, 0x43),
                                      (6, 2, 0x43)])
def test_family_matches_oracle(n, k, mod):
    # One point per parity case: EvenM, BothOdd, EvenK.
    fam = build_family(build_field(n, mod), derive_params(n, k))
    naive = ref.family_naive(k, mod, n)
    assert [fam.label(i) for i in range(fam.size)] == \
        [label for label, _ in naive]
    for row, (_, bits) in zip(bits_of(fam), naive):
        assert tuple(int(b) for b in row) == bits


def test_correlation_shift_symmetry(ctx4, p41):
    fam = build_family(ctx4, p41)
    a, b = bits_of(fam)[[3, 64]].tolist()
    L = len(a)
    for tau in range(L):
        assert ref.correlation_naive(a, b, L - tau) == \
            ref.correlation_naive(b, a, tau)


@pytest.mark.parametrize("nk", [(4, 1), (6, 1), (6, 2)])
def test_correlation_distribution_frozen(nk):
    n, k = nk
    fam = build_family(build_field(n), derive_params(n, k))
    dist = correlation_distribution(fam)
    assert dist.as_dict() == CORRELATIONS[nk]
    assert dist.total == SIZES[nk] ** 2 * ((1 << n) - 1)
    # The peak value 2^n - 1 appears once per member (self at shift 0).
    assert dist.count((1 << n) - 1) == SIZES[nk]


@pytest.mark.parametrize("nk", [(4, 1), (6, 1), (6, 2)])
def test_composition_matches_brute(nk):
    n, k = nk
    fam = build_family(build_field(n), derive_params(n, k))
    brute = correlation_distribution(fam)
    composed = correlation_distribution_formula(derive_params(n, k))
    assert brute.as_dict() == composed.as_dict()


def test_composition_frozen_n8():
    dist = correlation_distribution_formula(derive_params(8, 2))
    assert dist.as_dict() == {-65: 26410508, -17: 1491414042, -1: 1057466314,
                              15: 1690269452, 63: 44017428, 255: 4111}
    assert dist.total == 4111 ** 2 * 255


@pytest.mark.slow
def test_brute_matches_composition_n8(ctx8, p82):
    fam = build_family(ctx8, p82)
    brute = correlation_distribution(fam)
    assert brute.as_dict() == correlation_distribution_formula(p82).as_dict()


@pytest.mark.slow
@pytest.mark.parametrize("k", [1, 3])
def test_brute_matches_composition_n8_other_k(ctx8, k):
    params = derive_params(8, k)
    brute = correlation_distribution(build_family(ctx8, params))
    assert brute.as_dict() == correlation_distribution_formula(params).as_dict()


def test_correlation_workers_equivalent(ctx4, p41):
    fam = build_family(ctx4, p41)
    assert correlation_distribution(fam, workers=3).as_dict() == \
        correlation_distribution(fam, workers=1).as_dict()


def test_correlation_orbit_spans_capped(ctx4, p41, recording_pool):
    # One span of orbits, with its own buffers, per thread actually started.
    fam = build_family(ctx4, p41)
    _, sizes = orbits_of(fam)
    threads = _thread_count(10 ** 6, len(sizes))
    assert correlation_distribution(fam, workers=10 ** 6).as_dict() == \
        CORRELATIONS[(4, 1)]
    assert recording_pool == [(threads, threads)] == [(4, 4)]
    # F1(0,0) is the m-sequence Tr(x), its own orbit: one span, no pool.
    alone = SequenceFamily(p41, fam.rows[:1])
    assert correlation_distribution(alone, workers=10 ** 6).as_dict() == \
        {-1: 14, 15: 1}
    assert recording_pool == [(4, 4)]


def test_threads_capped_by_cpus_and_tasks(ctx4, p41, recording_pool):
    # Four CPUs: as many threads as the workers, the CPUs and the orbits
    # allow, and no pool for one. The constant family has two orbits.
    assert [_thread_count(w, t) for w, t in
            ((10 ** 6, 10), (10 ** 6, 3), (2, 10), (1, 10))] == [4, 3, 2, 1]
    fam = build_family(ctx4, p41)
    for workers in (1, 3, 10 ** 6):
        assert correlation_distribution(fam, workers=workers).as_dict() == \
            CORRELATIONS[(4, 1)]
    assert correlation_distribution(constant_family(4),
                                    workers=10 ** 6).as_dict() == \
        {15: 30, -15: 30}
    assert recording_pool == [(3, 3), (4, 4), (2, 2)]


def test_threads_capped_by_the_affinity_mask(ctx4, p41, recording_pool,
                                             monkeypatch):
    # Pinned to one of the four CPUs: one thread, and no pool.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert _thread_count(10 ** 6, 10) == 1
    assert correlation_distribution(build_family(ctx4, p41),
                                    workers=10 ** 6).as_dict() == \
        CORRELATIONS[(4, 1)]
    assert recording_pool == []


def test_threads_capped_by_cpu_count_without_affinity(ctx4, p41,
                                                      recording_pool,
                                                      monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _thread_count(10 ** 6, 10) == 3
    assert correlation_distribution(build_family(ctx4, p41),
                                    workers=10 ** 6).as_dict() == \
        CORRELATIONS[(4, 1)]
    assert recording_pool == [(3, 3)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _thread_count(10 ** 6, 10) == 1


# EvenM, BothOdd and EvenK, each under two moduli.
ORACLE_CASES = [(4, 1, 0x13), (6, 1, 0x43), (6, 2, 0x43), (6, 2, 0x61),
                (4, 1, 0x19), (6, 1, 0x61)]


@pytest.fixture
def fixed_tiles(monkeypatch):
    """fixed_tiles(rows) makes every correlation tile `rows` members, and
    returns the list of the periods the tile size is asked for with."""
    periods = []

    def fix(rows):
        def tile_rows(L):
            periods.append(L)
            return rows

        monkeypatch.setattr("kasamilab.sequences._tile_rows", tile_rows)
        return periods

    return fix


def constant_family(n):
    """The all-zero and the all-one sequence of period 2^n - 1."""
    bits = np.repeat(np.uint8([[0], [1]]), (1 << n) - 1, axis=1)
    return SequenceFamily(derive_params(n, 1),
                          np.packbits(bits, axis=1, bitorder="little"))


@pytest.mark.parametrize("n,k,mod", ORACLE_CASES)
def test_orbit_sweep_matches_all_pairs_oracle(n, k, mod):
    fam = build_family(build_field(n, mod), derive_params(n, k))
    brute = all_pairs_sweep(fam)
    assert correlation_distribution(fam).as_dict() == brute
    assert one_shift_orbit_sweep(fam) == brute


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n,k,mod", ORACLE_CASES)
def test_orbit_sweep_in_many_tiles_matches_all_pairs_oracle(
        fixed_tiles, n, k, mod, workers):
    # Tiles of the largest orbit's size, n members, far below the family
    # size, so that most representatives sweep their later rows in several
    # tiles; the sweep reads the tile size once.
    periods = fixed_tiles(n)
    fam = build_family(build_field(n, mod), derive_params(n, k))
    assert correlation_distribution(fam, workers=workers).as_dict() == \
        all_pairs_sweep(fam)
    assert periods == [(1 << n) - 1] and 10 * n < fam.size


@pytest.mark.parametrize("n", [4, 6])
def test_one_pool_per_sweep_across_many_tiles(fixed_tiles, recording_pool,
                                              n):
    # Tiles of n members: the sweep walks 17 or 86 of them, and each of its
    # four threads walks every tile itself, in the one pool of the call.
    periods = fixed_tiles(n)
    fam = build_family(build_field(n), derive_params(n, 1))
    assert correlation_distribution(fam, workers=10 ** 6).as_dict() == \
        CORRELATIONS[(n, 1)]
    assert recording_pool == [(4, 4)]
    assert periods == [(1 << n) - 1] and -(-fam.size // n) in (17, 86)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n,k,mod", ORACLE_CASES)
def test_orbit_sweep_across_tile_and_chunk_edges_matches_all_pairs_oracle(
        fixed_tiles, monkeypatch, n, k, mod, workers):
    # Tiles one member short of the largest orbit, so that orbits straddle
    # tile edges, and _decimation_orbits blocks of one member, so that its
    # chunk edges fall between every two rows it decimates.
    periods = fixed_tiles(n - 1)
    monkeypatch.setattr("kasamilab.sequences._CHUNK", 2 << (n - 1))
    fam = build_family(build_field(n, mod), derive_params(n, k))
    assert correlation_distribution(fam, workers=workers).as_dict() == \
        all_pairs_sweep(fam)
    assert periods == [(1 << n) - 1]


def own_orbit_parts(sizes, rows):
    """Which parts of its own orbit a representative's tiles hold: 'empty',
    'partial' or 'whole', over every tile of `rows` members that it sweeps,
    for orbits of the given sizes in orbit order."""
    parts, count = set(), sum(sizes)
    for first, w in zip(np.cumsum([0] + sizes), sizes):
        for lo in range(first - first % rows, count, rows):
            held = min(first + w, lo + rows) - max(first, lo)
            parts.add("empty" if held <= 0 else
                      "whole" if held == w else "partial")
    return parts


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [3, 5])
def test_own_orbit_part_empty_partial_or_whole_in_a_tile(
        fixed_tiles, ctx4, p41, rows, workers):
    # A representative weights the rows of its own orbit by w and later
    # rows by 2w. Orbits of 4, 2 and 1 members in tiles of 3 or 5: a tile
    # holds none of the representative's orbit, part of it or all of it.
    fam = build_family(ctx4, p41)
    _, sizes = orbits_of(fam)
    assert own_orbit_parts(sizes, rows) == {"empty", "partial", "whole"}
    assert own_orbit_parts(sizes, fam.size) == {"whole"}
    fixed_tiles(rows)
    assert correlation_distribution(fam, workers=workers).as_dict() == \
        all_pairs_sweep(fam)


@pytest.mark.parametrize("dtype", [np.float32])
def test_value_counts_match_bincount_up_to_the_float32_top(dtype):
    # Product entries at n = 12, two shifts to a column: a + M b for
    # agreement counts a, b in [0, L], and a alone in the last column, whose
    # second digit is a pad. They reach M^2 - 1 = 2^24 - 1, the top of every
    # float32 layout (three shifts at n = 8 reach it too). Neighbours 1
    # apart must stay apart. Each block is counted knowing none of its
    # values, all of them, every other one, and all of them among values it
    # lacks; the known values come back with its own, counts aligned.
    L = 4095
    M = L + 1
    rng = np.random.default_rng(0)
    agree = rng.integers(0, L + 1, (2, 60, M // 2))
    entries = agree[0] + M * agree[1]
    entries[:, -1] = agree[0, :, -1]
    entries[:3, 0] = [0, 1, 2]
    entries[:2, 1] = [M * M - 1, M * M - 2]
    top = M * M - 1 - rng.integers(0, 2, (10, M // 2))
    for block in (entries, top, entries[:0]):
        want = np.bincount(block.ravel())
        values = np.flatnonzero(want)
        for known in ([], values, values[::2], [-1, *values, M * M]):
            floats = block.astype(dtype)
            seen, count = _value_counts(floats, np.array(known, dtype))
            assert seen.tolist() == sorted({*known, *values.tolist()})
            assert dict(zip(seen.tolist(), count.tolist())) == {
                **dict.fromkeys(known, 0), **dict(zip(values.tolist(),
                                                      want[values].tolist()))}
            assert (np.diff(floats.ravel()) >= 0).all()  # sorted in place
    assert entries.max() == M * M - 1 == 2 ** 24 - 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [4, 6])
def test_constant_members_fill_both_end_bins(n, workers):
    # Both members are fixed by decimation. Their agreement counts are 0
    # and L only: the first bin and the top bin.
    L = (1 << n) - 1
    assert correlation_distribution(constant_family(n),
                                    workers=workers).as_dict() == \
        {L: 2 * L, -L: 2 * L}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [4, 6])
def test_constant_members_fill_both_end_bins_in_tiles_of_one(
        fixed_tiles, n, workers):
    # One member per tile: the first orbit's later member is its own tile.
    periods = fixed_tiles(1)
    L = (1 << n) - 1
    assert correlation_distribution(constant_family(n),
                                    workers=workers).as_dict() == \
        {L: 2 * L, -L: 2 * L}
    assert periods == [L]


@pytest.mark.parametrize("n", range(4, 25, 2))
def test_packed_product_exact_in_its_dtype(n):
    # A column of D shifts has L entries of at most (M^D - 1)/L against
    # half signs of +-1/2, so every partial sum is k/2 with |k| <= M^D - 1,
    # and so is the column after its offset, in [0, M^D - 1]: exact in
    # float32 while M^D - 1 < 2^24, and one more shift would not be.
    L = (1 << n) - 1
    M = L + 1
    D = _shifts_per_column(L)
    assert D == min(3, 24 // n)
    assert M ** D - 1 < 2 ** 24 == 2 ** (np.finfo(np.float32).nmant + 1)
    assert D == 3 or M ** (D + 1) - 1 >= 2 ** 24


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32])
@pytest.mark.parametrize("n,k,mod", ORACLE_CASES)
def test_two_shift_columns_with_a_pad_digit_match_all_pairs_oracle(
        monkeypatch, n, k, mod, dtype, workers):
    # L is odd, so at two shifts a column the last column's second digit is
    # a pad, which the sweep takes back off bin 0. Tier-1 meets the pad
    # otherwise only at n = 10; here it runs at n = 4 and 6, two shifts a
    # column being exact in the product's dtype there too.
    L = (1 << n) - 1
    assert (L + 1) ** 2 - 1 < 2 ** (np.finfo(dtype).nmant + 1)
    monkeypatch.setattr("kasamilab.sequences._shifts_per_column",
                        lambda period: 2)
    fam = build_family(build_field(n, mod), derive_params(n, k))
    assert correlation_distribution(fam, workers=workers).as_dict() == \
        all_pairs_sweep(fam)
    # Constant members read agreement 0, the pad's bin, at every shift.
    assert correlation_distribution(constant_family(n),
                                    workers=workers).as_dict() == \
        {L: 2 * L, -L: 2 * L}


@pytest.mark.parametrize("nk", [(4, 1), (6, 1), (6, 2)])
def test_decimation_orbits_cover_the_family(nk):
    n, k = nk
    fam = build_family(build_field(n), derive_params(n, k))
    orbit, sizes = orbits_of(fam)
    assert sum(sizes) == fam.size
    assert Counter(orbit) == dict(enumerate(sizes))
    # Decimation by 2 has order n on the shifts, so every orbit size divides n.
    assert all(n % size == 0 for size in sizes)


def test_flipped_bit_breaks_the_decimation_closure(ctx4, p41):
    fam = flipped_family(build_family(ctx4, p41))
    with pytest.raises(VerificationError, match="decimation"):
        correlation_distribution(fam)


def test_verify_records_a_broken_closure_as_mismatch(tmp_path, monkeypatch,
                                                     ctx4, p41):
    fam = flipped_family(build_family(ctx4, p41))
    monkeypatch.setattr("kasamilab.cli.build_family", lambda ctx, p: fam)
    assert main(["verify", "--n", "4", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    record = next(r for r in report["records"] if r["name"] == "correlation")
    assert record["status"] == "mismatch"
    assert "decimation" in record["detail"]


def test_correlation_memory_linear_in_family(ctx6, p61):
    # No |F|^2 buffer: one all-pairs float32 product per shift and its intp
    # copy alone would take 12 |F|^2 bytes, about 3 MB here.
    fam = build_family(ctx6, p61)
    count, L = fam.size, fam.params.q - 1
    tracemalloc.start()
    try:
        correlation_distribution(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * count * L < 12 * count * count


def test_correlation_memory_bounded_by_its_tile(ctx8, p82):
    # Per member, the packed bits with their orbit bookkeeping: under
    # L/8 + 129 bytes. One tile of rows members as float32 signs, and per
    # thread one tile's float32 product and, where it meets new values, two
    # bytes an entry marking the heads of its runs: 6 bytes for each of M/2
    # columns. 2.38 MiB here, against a traced 2.1 MiB; a sweep whose
    # buffers hold all |F| members instead of one tile peaks at 7.3 MiB.
    fam = build_family(ctx8, p82)
    count, L = fam.size, fam.params.q - 1
    M = L + 1
    _, sizes = orbits_of(fam)
    rows = min(count, max(max(sizes), 4 * (L + 2)))
    tracemalloc.start()
    try:
        correlation_distribution(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows < count
    assert peak < (count * (L // 8 + 129) + 4 * rows * (L + 1)
                   + 6 * rows * M // 2)


def test_correlation_memory_has_no_family_sized_float_term(ctx8, p82):
    # Shared: the packed bits with their orbit bookkeeping, under L/8 + 129
    # bytes a member, and one tile of rows members as float32 signs. On
    # the one thread: the float32 circulant, one tile's float32 product
    # and two bytes a product entry marking the heads of its runs. No
    # |F| L float term: 2.51 MiB here, against a traced 2.1 MiB, where
    # float32 signs of every member alone take 4.0 MiB, and a tile of
    # 8 (L + 2) members peaks at 3.8 MiB.
    fam = build_family(ctx8, p82)
    count, L = fam.size, fam.params.q - 1
    M = L + 1
    _, sizes = orbits_of(fam)
    rows = min(count, max(max(sizes), 4 * (L + 2)))
    bound = (count * (L // 8 + 129) + 4 * rows * (L + 1)
             + 4 * (L + 1 + rows) * M // 2 + 2 * rows * M // 2)
    assert rows < count and bound < 3 * 2 ** 20
    assert traced_peak(correlation_distribution, fam, workers=1) < bound


def test_family_holds_its_packed_rows(ctx8, p82):
    # ceil(L/8) bytes a member and a few hundred bytes besides: 0.13 MiB,
    # where one uint8 array per member took 2.07 MiB. A first build fills
    # the field's cached tables, which the family does not hold.
    build_family(ctx8, p82)
    tracemalloc.start()
    try:
        fam = build_family(ctx8, p82)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fam.rows.nbytes == fam.size * -(-(fam.params.q - 1) // 8)
    assert held < fam.size * (fam.rows.shape[1] + 8) < 2 ** 20 // 5


@pytest.mark.slow
def test_tiled_sweep_matches_rep_major_kernel_on_n10_orbits(monkeypatch):
    # The n = 10 path: a float32 product whose entries reach L + M^2 =
    # 1,049,599, each sorted block up to 400 members of 512 columns, here
    # in tiles of 400 members. A union of decimation orbits is closed under
    # decimation, so the 150 largest orbits of (10,1) form a family of their
    # own.
    params = derive_params(10, 1)
    fam = build_family(build_field(10), params)
    orbit, sizes = orbits_of(fam)
    sub = SequenceFamily(params, fam.rows[orbit < 150])
    monkeypatch.setattr("kasamilab.sequences._tile_rows", lambda L: 400)
    # float32 holds that kernel's two-shift product, with its sentinel
    # column, exactly at n = 10: every partial sum is k/2 with |k| <=
    # 2 (L^2 + 3L + 1) < 2^24. The sweep packs two shifts at n = 10 too, with
    # a pad digit in place of the sentinel.
    want = ref.correlation_rep_major(bits_of(sub), *orbits_of(sub), sub.size,
                                     np.float32)
    assert correlation_distribution(sub, workers=2).as_dict() == want
    assert sub.size == sum(sizes[:150]) == 1500
    assert _shifts_per_column(1023) == 2


def test_printed_table_clean_cases(p41, p62):
    # Single-regime table and even-k table reproduce the derived counts as is.
    assert correlation_distribution_formula(p41).notes == ()
    assert correlation_distribution_formula(p62).notes == ()
    for params in (p41, p62):
        printed = dict(correlation_table_printed(params))
        derived = correlation_distribution_formula(params).as_dict()
        assert {v: int(c) for v, c in printed.items()} == derived


def test_printed_table_rows_are_exact_fractions(p41):
    rows = correlation_table_printed(p41)
    assert all(isinstance(c, Fraction) for _, c in rows)
    assert sum(c for _, c in rows) == 67 ** 2 * 15


def test_offset_misprint_notes_frozen(p61):
    assert correlation_distribution_formula(p61).notes == NOTES_61


def test_deficit_misprint_notes_frozen(p82):
    assert correlation_distribution_formula(p82).notes == NOTES_82


def test_inequivalence(ctx4, ctx6, p41, p61, p62):
    assert ref.check_inequivalence(build_family(ctx4, p41))
    assert ref.check_inequivalence(build_family(ctx6, p61))
    assert ref.check_inequivalence(build_family(ctx6, p62))


def coset_family(*rows):
    """A (4,1) family of the given 15-bit rows. The indicator of the
    cyclotomic coset {1, 2, 4, 8} is its own decimation, so with its odd
    rotations, its complement or a constant row the decimation map
    permutes the rows and the sweep runs."""
    return SequenceFamily(params=derive_params(4, 1), rows=np.packbits(
        np.array(rows, dtype=np.uint8), axis=1, bitorder="little"))


COSET = np.isin(np.arange(15), [1, 2, 4, 8]).astype(np.uint8)


@pytest.mark.parametrize("family", [
    (4, 1), (6, 1), (6, 2),
    coset_family(COSET, 1 - COSET),       # distinct, full period
    coset_family(COSET, np.roll(COSET, 1)),  # a rotation of a member
    coset_family(COSET, np.zeros(15)),    # a member of period 1
], ids=["4-1", "6-1", "6-2", "complement", "rotated", "constant"])
def test_count_verdict_agrees_with_the_rotation_oracle(family):
    # Correlation L = 2^n - 1 means agreement at every position: it occurs
    # once per member (against itself at shift 0) iff the members are
    # full-period and pairwise rotation-distinct.
    if isinstance(family, tuple):
        family = build_family(build_field(family[0]), derive_params(*family))
    L = family.params.q - 1
    verdict = correlation_distribution(family).count(L) == family.size
    assert verdict == ref.check_inequivalence(family)


def rotated_member(family, into=7, source=3, shift=1):
    """The family with member `into` replaced by member `source` rotated."""
    L = family.params.q - 1
    bits = bits_of(family)
    bits[into] = np.roll(bits[source], -shift)
    return replace(family, rows=np.packbits(bits, axis=1, bitorder="little"))


@pytest.mark.parametrize("kind", ["family", "coset"])
def test_verify_refuses_a_family_with_a_rotated_member(tmp_path, monkeypatch,
                                                       ctx4, p41, kind):
    # In the family itself the replaced member was the decimation image of
    # another, which the sweep refuses; in the coset family the sweep runs
    # and the count of correlation L refuses it.
    fam = (rotated_member(build_family(ctx4, p41)) if kind == "family"
           else coset_family(COSET, np.roll(COSET, 1)))
    monkeypatch.setattr("kasamilab.cli.build_family", lambda ctx, p: fam)
    assert main(["verify", "--n", "4", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    record = next(r for r in report["records"] if r["name"] == "family")
    assert record["status"] == "mismatch"
    assert (record["detail"] == "members are not full-period "
            "rotation-distinct" if kind == "coset"
            else "is no member up to rotation" in record["detail"])


def test_pure_quadratic_member_autocorrelation(ctx6, p62):
    # gcd(2^k + 1, 2^n - 1) = 1 here, so the last member is an m-sequence.
    fam = build_family(ctx6, p62)
    assert fam.label(fam.size - 1) == "F3"
    bits = bits_of(fam)[-1].tolist()
    assert all(ref.correlation_naive(bits, bits, tau) == -1
               for tau in range(1, 63))


def test_family_dump(ctx4, p41):
    fam = build_family(ctx4, p41)
    lines = family_dump_lines(fam)
    assert len(lines) == 67
    assert lines[0].startswith("F1(0,0),")
    label, hexbits = lines[-1].split(",")
    assert label == "F2(4)" and len(hexbits) == 4


@pytest.mark.parametrize("n,k,mod", [(4, 1, 0x13), (6, 2, 0x43)])
def test_family_dump_matches_per_member_formatting(tmp_path, n, k, mod):
    # --dump-family writes the lines each member's label and hex bits made
    # when every member was an array of its own.
    want = [f"{label},{pack_bits_hex(bits)}"
            for label, bits in ref.family_naive(k, mod, n)]
    assert family_dump_lines(build_family(build_field(n, mod),
                                          derive_params(n, k))) == want
    assert main(["correlation", "--n", str(n), "--k", str(k),
                 "--dump-family", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "family.txt").read_bytes() == \
        ("\n".join(want) + "\n").encode()


ORBIT_POINTS = [(n, k) for n in (4, 6, 8) for k in range(1, n) if k != n // 2]


@pytest.mark.parametrize("n,k", ORBIT_POINTS)
def test_decimation_orbits_match_the_per_row_oracle(n, k):
    fam = build_family(build_field(n), derive_params(n, k))
    orbit, sizes = orbits_of(fam)
    want = ref.decimation_orbits_per_row(fam.rows, fam.params.q - 1)
    assert (orbit.tolist(), sizes) == want


def test_members_are_unpacked_as_read(ctx6, p62):
    fam = build_family(ctx6, p62)
    members = fam.members
    assert len(members) == fam.size == 520
    assert members[-1].label == "F3" and members[0].label == "F1(0,0)"
    assert (members[-1].bits == bits_of(fam)[-1]).all()
    with pytest.raises(IndexError):
        members[fam.size]

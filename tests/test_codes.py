"""Cyclic code machinery: minimal polynomials, codewords, weight counts."""

import dataclasses
import json
import re
from collections import Counter

import numpy as np
import pytest

import reference as ref
from kasamilab import (ValueDistribution, VerificationError, build_field,
                       check_cyclicity, check_parity, code_dimension, codes,
                       codeword_c1, codeword_c2, derive_params, expsum, field,
                       h_polynomials, kernel_dims, minimal_poly,
                       parity_check_mask, s_spectrum, subfield_elements,
                       t_spectrum,
                       weight_distribution, weight_distribution_formula)
from kasamilab.cli import main
from kasamilab.codes import codeword_dump_lines
from kasamilab.field import _gf2_polymod, is_irreducible, power_table
from test_expsum import flip_row_bit, traced_peak

# (n, k) -> coefficient masks of (h1, h2, h3), frozen from the naive coset product.
H_POLYS = {
    (4, 1): (0x19, 0x1F, 0x7),
    (6, 1): (0x61, 0x75, 0xB),
    (6, 2): (0x61, 0x73, 0xB),
    (8, 2): (0x171, 0x19F, 0x19),
}
WEIGHTS = {
    (4, 1, "c1"): {0: 1, 6: 25, 8: 30, 10: 3, 12: 5},
    (4, 1, "c2"): {0: 1, 4: 105, 6: 280, 8: 435, 10: 168, 12: 35},
}


def poly_at(ctx, mask, x):
    """The GF(2) polynomial `mask` (bit i at x^i) evaluated at x."""
    return np.bitwise_xor.reduce(
        [ctx.pow(x, i) for i in range(mask.bit_length()) if mask >> i & 1])


def test_minimal_poly_example(ctx4):
    # pi^5 has order 3, so its minimal polynomial is x^2 + x + 1.
    assert minimal_poly(ctx4, 5) == 0x7


@pytest.mark.parametrize("n,mod", [(4, 0x13), (6, 0x43)])
def test_minimal_poly_matches_oracle(n, mod):
    ctx = build_field(n)
    for e in range(1, (1 << n) - 1):
        assert minimal_poly(ctx, e) == ref.min_poly_naive(e, mod, n)


def test_minimal_poly_is_irreducible_divisor(ctx6):
    L = 63
    for e in (1, 3, 9, 21, 31):
        mask = minimal_poly(ctx6, e)
        assert is_irreducible(mask, mask.bit_length() - 1)
        assert _gf2_polymod((1 << L) | 1, mask) == 0


def test_minimal_poly_has_root(ctx6):
    for e in (1, 5, 11):
        assert poly_at(ctx6, minimal_poly(ctx6, e), ctx6.pow(ctx6.pi, e)) == 0


@pytest.mark.parametrize("nk,masks", sorted(H_POLYS.items()))
def test_h_polynomials_frozen(nk, masks):
    n, k = nk
    ctx, p = build_field(n), derive_params(n, k)
    hs = h_polynomials(ctx, p)
    assert hs == masks
    assert tuple(h.bit_length() - 1 for h in hs) == (n, n, n // 2)
    # h1, h2, h3 vanish at pi^-1, pi^-e2, pi^-e1.
    L = (1 << n) - 1
    assert [poly_at(ctx, h, ctx.pow(ctx.pi, L - e)) for h, e in
            zip(hs, (1, p.e_quad, p.e_norm))] == [0, 0, 0]


@pytest.mark.parametrize("nk", [(4, 1), (6, 1), (6, 2)])
def test_parity_check_degree_is_dimension(nk):
    n, k = nk
    ctx, p = build_field(n), derive_params(n, k)
    assert parity_check_mask(ctx, p, "c1").bit_length() - 1 == \
        code_dimension(p, "c1")
    assert parity_check_mask(ctx, p, "c2").bit_length() - 1 == \
        code_dimension(p, "c2")


def test_code_dimensions(p41, p61):
    assert code_dimension(p41, "c1") == 6 and code_dimension(p41, "c2") == 10
    assert code_dimension(p61, "c1") == 9 and code_dimension(p61, "c2") == 15


def measured_weights(ctx, params, code):
    """The code's weight distribution, relabelled from its measured sum."""
    sums = t_spectrum if code == "c1" else s_spectrum
    return weight_distribution(sums(ctx, params), params, code)


def test_codeword_matches_oracle(ctx4, p41):
    sub = subfield_elements(ctx4, 2)
    for alpha, beta in [(0, 0), (sub[1], 7), (sub[3], 15)]:
        got = codeword_c1(ctx4, p41, alpha, beta)
        assert tuple(int(b) for b in got) == \
            ref.codeword_bits_c1(alpha, beta, 1, 0x13, 4)
    for alpha, beta, gamma in [(sub[2], 3, 9), (0, 0, 1)]:
        got = codeword_c2(ctx4, p41, alpha, beta, gamma)
        assert tuple(int(b) for b in got) == \
            ref.codeword_bits_c2(alpha, beta, gamma, 1, 0x13, 4)


@pytest.mark.parametrize("nk", [(4, 1), (6, 1), (6, 2)])
@pytest.mark.parametrize("code", ["c1", "c2"])
def test_weights_three_ways(nk, code):
    n, k = nk
    ctx, p = build_field(n), derive_params(n, k)
    brute = measured_weights(ctx, p, code)
    assert brute.as_dict() == matmul_weights(ctx, p, code)
    assert brute.as_dict() == weight_distribution_formula(p, code).as_dict()
    assert brute.total == 1 << code_dimension(p, code)


def test_relabel_needs_even_sums_over_every_word(p41):
    # 2^6 words of c1 at n = 4: the relabel takes 16 to weight 0 and -8 to
    # 12, and refuses an odd sum or a total that misses a word.
    t = ValueDistribution.from_counts({16: 1, -8: 63})
    assert weight_distribution(t, p41, "c1").as_dict() == {0: 1, 12: 63}
    with pytest.raises(VerificationError, match="odd"):
        weight_distribution(ValueDistribution.from_counts({16: 1, -7: 63}),
                            p41, "c1")
    with pytest.raises(VerificationError, match="cover 64 words, expected"):
        weight_distribution(t, p41, "c2")


@pytest.mark.parametrize("key,expected", sorted(WEIGHTS.items()))
def test_weights_frozen(key, expected):
    n, k, code = key
    dist = measured_weights(build_field(n), derive_params(n, k), code)
    assert dist.as_dict() == expected


def test_codewords_injective(ctx4, p41):
    words = []
    for alpha in subfield_elements(ctx4, 2):
        for beta in range(16):
            for gamma in range(16):
                words.append(codeword_c2(ctx4, p41, alpha, beta, gamma))
    packed = np.packbits(np.array(words), axis=1)
    assert len(np.unique(packed, axis=0)) == 1 << 10
    c1_packed = packed[::16]  # gamma = 0 rows are exactly the c1 words
    assert len(np.unique(c1_packed, axis=0)) == 1 << 6


@pytest.mark.parametrize("code", ["c1", "c2"])
def test_cyclicity_exhaustive(ctx4, p41, code):
    # Oracle: for every tuple, the reference word rotated by one position is
    # the reference word of (alpha pi^e1, beta pi^e2, gamma pi).
    mod, n, k = 0x13, 4, 1
    pe1 = ref.gf2_pow(2, p41.e_norm, mod, n)
    pe2 = ref.gf2_pow(2, p41.e_quad, mod, n)
    for alpha in ref.subfield(2, mod, n):
        for beta in range(16):
            for gamma in (range(16) if code == "c2" else [0]):
                image = (ref.gf2_mul(alpha, pe1, mod, n),
                         ref.gf2_mul(beta, pe2, mod, n),
                         ref.gf2_mul(gamma, 2, mod, n))
                if code == "c1":
                    word = ref.codeword_bits_c1(alpha, beta, k, mod, n)
                    want = ref.codeword_bits_c1(*image[:2], k, mod, n)
                else:
                    word = ref.codeword_bits_c2(alpha, beta, gamma, k, mod, n)
                    want = ref.codeword_bits_c2(*image, k, mod, n)
                assert word[1:] + word[:1] == want
    check_cyclicity(ctx4, p41, code)  # raises unless each proof holds


# The orbit lemma is made once per field, so a test that patches a table,
# or measures cyclicity, reads a field of its own.

def flipped_power_table(e):
    """GF(16) with one bit of its x^e table flipped, at x = 15, before any
    reader builds it."""
    ctx = build_field(4)
    table = power_table(build_field(4), e).copy()
    table[15] ^= 1
    field._cached(ctx, ("pow", e), lambda: table)
    return ctx


def power_law_broken(e):
    """The orbit lemma's text for a broken x^e table, as a pattern."""
    return re.escape(f"the x^{e} table breaks x -> pi x: P[pi x] is not "
                     f"pi^{e} P[x]")


@pytest.mark.parametrize("code", ["c1", "c2"])
def test_cyclicity_detects_a_flipped_bit(code):
    # Every beta row is built on the x^e2 table (e2 = 3 at k = 1); one bit
    # flipped in it breaks the orbit lemma's law for both codes.
    ctx, p = flipped_power_table(3), derive_params(4, 1)
    with pytest.raises(VerificationError, match=power_law_broken(3)):
        check_cyclicity(ctx, p, code)


@pytest.mark.parametrize("code", ["c1", "c2"])
def test_cyclicity_checks_every_alpha(code):
    # Every alpha row is built on the x^e1 table (e1 = 5 at n = 4); one bit
    # flipped in it breaks the orbit lemma's law for both codes.
    ctx, p = flipped_power_table(5), derive_params(4, 1)
    with pytest.raises(VerificationError, match=power_law_broken(5)):
        check_cyclicity(ctx, p, code)


def test_cyclicity_checks_every_gamma_row():
    # The gamma rows Tr_n(g x) are built on the x^1 table; one bit flipped
    # in it breaks c2 alone, the only code that XORs gamma rows.
    ctx, p = flipped_power_table(1), derive_params(4, 1)
    check_cyclicity(ctx, p, "c1")
    with pytest.raises(VerificationError, match=power_law_broken(1)):
        check_cyclicity(ctx, p, "c2")


def test_cyclicity_memory_bounded_by_one_alpha():
    # Cyclicity builds no row, only the orbit lemma's tables of q entries.
    # All 2^15 words at once, with their images and rotation, take 5.9 MB.
    ctx, p = build_field(6), derive_params(6, 1)
    assert traced_peak(check_cyclicity, ctx, p, "c2") < 2 * (1 << 20)


def test_cyclicity_reads_only_the_row_tables(monkeypatch):
    # No word is built, nor any row: the lemma's tables of q entries trace
    # 12 KiB; one alpha's c2 words trace 778 KiB.
    def no_words(*args):
        raise AssertionError("check_cyclicity built codewords")

    monkeypatch.setattr(codes, "_words", no_words)
    monkeypatch.setattr(codes, "_word_rows", no_words)
    ctx, p = build_field(6), derive_params(6, 1)
    assert traced_peak(check_cyclicity, ctx, p, "c2") < 128 * (1 << 10)


def test_exhaustive_cyclicity_memory_at_n12_bounded_by_its_blocks():
    # Cyclicity is exhaustive at every n: the orbit lemma's tables of 4096
    # entries trace 0.35 MiB for c1, and 0.13 MiB for c2 once c1 has built
    # the shared ones. Whole row tables in word order, with their images,
    # trace 65 MiB for c1 and 97 MiB for c2.
    ctx, p = build_field(12), derive_params(12, 1)
    for code in ("c1", "c2"):
        assert traced_peak(check_cyclicity, ctx, p, code) < 4 * (1 << 20)


@pytest.mark.slow
def test_cyclicity_sampled_n8(ctx8, p82):
    check_cyclicity(ctx8, p82, "c1")
    check_cyclicity(ctx8, p82, "c2")


def test_parity_check_accepts_codewords(ctx6, p61):
    sub = subfield_elements(ctx6, 3)
    for alpha, beta in [(0, 1), (sub[4], 44), (sub[7], 63)]:
        word = codeword_c1(ctx6, p61, alpha, beta)
        check_parity(ctx6, p61, "c1", word)
        check_parity(ctx6, p61, "c2", word)  # c1 words lie inside c2


def test_parity_check_rejects_corrupted_word(ctx4, p41):
    word = codeword_c1(ctx4, p41, 1, 7).copy()
    word[3] ^= 1  # minimum distance exceeds 1, so this leaves the code
    for code in ("c1", "c2"):
        with pytest.raises(VerificationError,
                           match=f"^a {code} word fails its parity-check "
                                 "product$"):
            check_parity(ctx4, p41, code, word)


def test_codeword_dump(ctx4, p41):
    lines = codeword_dump_lines(ctx4, p41, "c1")
    assert lines[:3] == ["0000", "de7b", "9452"]
    assert len(lines) == 1 << 6
    assert len(set(lines)) == 1 << 6


def matmul_weights(ctx, params, code):
    """Oracle: every weight as |a| + |b| - 2 a.b, one float32 product per
    alpha row, from the rows in lambda order."""
    q = ctx.q
    sub = subfield_elements(ctx, params.m)
    arows, brows, grows = codes._word_rows(ctx, params, sub, range(q),
                                           range(q) if code == "c2" else [])
    bw = brows.sum(axis=1, dtype=np.int64)
    gw = grows.sum(axis=1, dtype=np.int64)
    counts = Counter()
    for arow in arows:
        if code == "c1":
            dots = brows.astype(np.float32) @ arow.astype(np.float32)
            w = int(arow.sum()) + bw - 2 * dots.astype(np.int64)
        else:
            base = arow[None, :] ^ brows
            dots = base.astype(np.float32) @ grows.astype(np.float32).T
            w = (base.sum(axis=1, dtype=np.int64)[:, None] + gw[None, :]
                 - 2 * dots.astype(np.int64))
        counts.update(w.ravel().tolist())
    return dict(counts)


@pytest.mark.parametrize("nk", [(6, 1), (6, 2), (8, 1), (8, 2), (8, 3)])
def test_weights_match_the_matmul_oracle(nk):
    ctx, p = build_field(nk[0]), derive_params(*nk)
    for code in ("c1", "c2"):
        assert measured_weights(ctx, p, code).as_dict() == \
            matmul_weights(ctx, p, code)


@pytest.mark.parametrize("nk", [(4, 1), (6, 2)])
def test_weights_are_popcounts_of_every_word(nk):
    ctx, p = build_field(nk[0]), derive_params(*nk)
    sub = subfield_elements(ctx, p.m)
    for code, gammas in (("c1", [0]), ("c2", range(ctx.q))):
        words = codes._words(codes._word_rows(ctx, p, sub, range(ctx.q),
                                              gammas))
        popcounts = Counter(words.sum(axis=1).tolist())
        assert measured_weights(ctx, p, code).as_dict() == popcounts


def test_c2_sweep_memory_bounded_by_its_span():
    # The gamma = 0 sweep over orbit representatives and the gamma = 1
    # sweep over one span of 1024 beta rows, 128 kB packed, each block of
    # rows built from its definitions 32 rows (256 kB of int64 products) at
    # a time. Walsh transforms of every (alpha, beta) pair over the gamma
    # axis take more.
    ctx, p = build_field(10), derive_params(10, 1)
    assert traced_peak(measured_weights, ctx, p, "c2") < 3 * (1 << 20)


def test_c1_sweep_memory_bounded_by_its_chunk():
    # T reads 68 beta rows of 4096 bits, the orbit representatives, built
    # 8 rows at a time. A (2^m, q) table of weights, an unpacked span of 512
    # beta rows or the q x q beta rows takes 2 MB or more.
    ctx, p = build_field(12), derive_params(12, 1)
    assert traced_peak(measured_weights, ctx, p, "c1") < 2 * (1 << 20)


@pytest.mark.parametrize("nk", [(10, 1), (10, 2), (12, 1), (12, 2)])
def test_c2_weights_match_the_formula_exhaustively(nk):
    ctx, p = build_field(nk[0]), derive_params(*nk)
    assert measured_weights(ctx, p, "c2").as_dict() == \
        weight_distribution_formula(p, "c2").as_dict()


def test_c2_memory_at_n12_bounded_by_the_gamma_table():
    # The gamma = 1 sweep reads the beta rows in spans of 512, 256 kB
    # packed, built in blocks of 128 rows of 4096 uint8 bits (512 kB), each
    # 8 rows (256 kB of int64 products) at a time: 2.5 MiB traced. The q x q
    # beta or gamma table alone takes 16 MB.
    ctx, p = build_field(12), derive_params(12, 1)
    assert traced_peak(measured_weights, ctx, p, "c2") < 3 * (1 << 20)


@pytest.mark.parametrize("table", ["alpha", "beta", "gamma"])
def test_c2_count_needs_every_row_closed_under_pi(monkeypatch, table):
    # The gamma != 0 words are counted at gamma = 1 only, and the words at
    # gamma = 0 (c1 among them) at alpha = 0, 1 and one beta per orbit, on
    # the licence that x -> pi x carries every row onto a row. A row they
    # read with one bit flipped is off its definition, and moves the count
    # off its closed form: the zero alpha row and beta = 5 (pi^12, the
    # representative of its orbit for alpha = 1) both counts, the gamma = 1
    # row the c2 count alone, as c1 reads no gamma.
    ctx, p = build_field(6), derive_params(6, 1)
    flip_row_bit(monkeypatch, *{"alpha": (p.e_norm, 0), "beta": (p.e_quad, 5),
                                "gamma": (1, 1)}[table])
    for code in ("c1", "c2"):
        got = measured_weights(ctx, p, code).as_dict()
        want = weight_distribution_formula(p, code).as_dict()
        assert (got == want) == ((code, table) == ("c1", "gamma"))


@pytest.mark.parametrize("kernel", ["_walsh", "_popcounts"])
def test_a_broken_kernel_fails_the_checks_that_read_it(tmp_path, monkeypatch,
                                                       kernel):
    # One entry of every block is moved by 2, which keeps each histogram's
    # total and the parity of every value: the first entry of the last row,
    # for the popcount kernel that of the last orbit representative, whose
    # T artin-schreier reads.
    build = getattr(expsum, kernel)

    def broken(*args):
        out = build(*args)
        out[-1, 0] += 2
        return out

    monkeypatch.setattr(expsum, kernel, broken)
    assert main(["verify", "--n", "6", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    failed = {r["name"] for r in report["records"]
              if r["status"] == "mismatch"}
    assert failed == ({"gamma-sweep"} if kernel == "_walsh" else
                      {"moments", "t-spectrum", "s-spectrum",
                       "artin-schreier", "code-weights-c1",
                       "code-weights-c2"})


def break_trace(monkeypatch, flip=False):
    """Patch Tr_n, the table rel_trace_table(ctx, 1, n) that the gamma axis
    and the beta and gamma rows read: all zero, a linear map under which every
    row Tr_n(g x) is the zero functional, or with flip, one bit flipped, so
    that it is no linear map at all."""
    build = expsum.rel_trace_table

    def broken(ctx, i, j):
        table = build(ctx, i, j)
        if (i, j) != (1, ctx.n):
            return table
        table = np.zeros_like(table) if not flip else table.copy()
        table[3] ^= flip
        return table

    monkeypatch.setattr(expsum, "rel_trace_table", broken)


@pytest.mark.parametrize("flip", [False, True], ids=["repeated", "nonlinear"])
def test_a_broken_gamma_axis_fails_every_walsh_sweep(tmp_path, monkeypatch,
                                                     flip):
    # The gamma-sweep names Tr_n from its gamma axis. T and S, and so both
    # code weights, build their beta rows on the same Tr_n and move off
    # their closed forms.
    break_trace(monkeypatch, flip)
    ctx, p = build_field(4), derive_params(4, 1)
    with pytest.raises(VerificationError, match="Tr_n"):
        expsum.gamma_sweep(ctx, p, kernel_dims(ctx, p)[0])
    for code in ("c1", "c2"):
        assert measured_weights(ctx, p, code).as_dict() != \
            weight_distribution_formula(p, code).as_dict()
    assert main(["verify", "--n", "4", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    records = {r["name"]: r for r in report["records"]}
    assert "Tr_n" in records["gamma-sweep"]["detail"]
    for name in ("gamma-sweep", "t-spectrum", "s-spectrum",
                 "code-weights-c1", "code-weights-c2"):
        assert records[name]["status"] == "mismatch"


def test_gamma_axis_is_proved_once_per_field(monkeypatch):
    # Only the gamma axis asks whether Tr_n is linear, once per field,
    # however often the gamma-sweep runs.
    built, linear = [], expsum._gf2_linear

    def counted(table):
        built.append(len(table))
        return linear(table)

    monkeypatch.setattr(expsum, "_gf2_linear", counted)
    ctx, p = build_field(6), derive_params(6, 1)
    dims = kernel_dims(ctx, p)[0]
    for _ in range(2):
        expsum.gamma_sweep(ctx, p, dims)
    assert built == [ctx.q]


def test_gamma_axis_memory_bounded_by_its_span():
    # n int64 vectors of q entries, the bits of every Tr_n(g x) at x = 2^j,
    # one at a time. The q x q gamma table alone takes 16 MB.
    assert traced_peak(expsum._gamma_axis, build_field(12)) < 8 * (1 << 20)


def test_gamma_axis_needs_pi_to_permute_the_field_linearly():
    # Two entries of the exp table exchanged, and the log table with them:
    # the tables are still inverse bijections and x -> pi x still steps the
    # exp table, but it is no longer linear, so the bits of a row Tr_n(g x)
    # at x = 2^j no longer fix the row.
    ctx = build_field(4)
    exp, log = ctx.exp_table.copy(), ctx.log_table.copy()
    exp[[3, 7]] = exp[[7, 3]]
    log[exp] = np.arange(ctx.order)
    with pytest.raises(VerificationError, match="permute the field linearly"):
        expsum._gamma_axis(dataclasses.replace(
            ctx, exp_table=exp, log_table=log, _cache={}))

"""Cyclic code machinery: minimal polynomials, codewords, weight counts."""

import json
from collections import Counter

import numpy as np
import pytest

import reference as ref
from kasamilab import (ValueDistribution, VerificationError, build_field,
                       check_cyclicity, check_parity, code_dimension, codes,
                       codeword_c1, codeword_c2, derive_params, expsum,
                       h_polynomials, minimal_poly, parity_check_mask,
                       s_spectrum, subfield_elements, t_spectrum,
                       weight_distribution, weight_distribution_formula)
from kasamilab.cli import main
from kasamilab.codes import codeword_dump_lines
from kasamilab.field import _gf2_polymod, is_irreducible
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


# The orbit proofs are made once per field, so a test that patches a row
# builder, or measures the proof, reads a field of its own.

@pytest.mark.parametrize("code", ["c1", "c2"])
def test_cyclicity_detects_a_flipped_bit(code, monkeypatch):
    ctx, p = build_field(4), derive_params(4, 1)
    flip_row_bit(monkeypatch, 1, ctx.q - 1)
    with pytest.raises(VerificationError,
                       match="the beta rows are not closed under x -> pi x"):
        check_cyclicity(ctx, p, code)


@pytest.mark.parametrize("code", ["c1", "c2"])
def test_cyclicity_checks_every_alpha(code, monkeypatch):
    # The rows are compared one coefficient at a time; a bit flipped in the
    # last alpha row leaves every other row closed.
    ctx, p = build_field(4), derive_params(4, 1)
    flip_row_bit(monkeypatch, 0, subfield_elements(ctx, p.m)[-1])
    with pytest.raises(VerificationError,
                       match="the alpha rows are not closed under x -> pi x"):
        check_cyclicity(ctx, p, code)


def test_cyclicity_checks_every_gamma_row(monkeypatch):
    # A repeated gamma row breaks c2 alone, the only code that XORs gamma
    # rows; on a fresh field, as the gamma axis is proved once per field.
    break_gamma_row(monkeypatch)
    ctx, p = build_field(4), derive_params(4, 1)
    check_cyclicity(ctx, p, "c1")
    with pytest.raises(VerificationError,
                       match=r"the rows Tr_n\(g x\) repeat a functional"):
        check_cyclicity(ctx, p, "c2")


def test_cyclicity_memory_bounded_by_one_alpha():
    # Only blocks of row tables are built: 8 + 64 rows of 64 uint8 bits and
    # their images, and the 64 gamma rows. All 2^15 words at once, with
    # their images and rotation, take 5.9 MB.
    ctx, p = build_field(6), derive_params(6, 1)
    assert traced_peak(check_cyclicity, ctx, p, "c2") < 2 * (1 << 20)


def test_cyclicity_reads_only_the_row_tables(monkeypatch):
    # No word is built, nor any row table in word order: the rows and their
    # images trace under 32 KiB; one alpha's c2 words trace 778 KiB.
    def no_words(*args):
        raise AssertionError("check_cyclicity built codewords")

    monkeypatch.setattr(codes, "_words", no_words)
    monkeypatch.setattr(codes, "_word_rows", no_words)
    ctx, p = build_field(6), derive_params(6, 1)
    assert traced_peak(check_cyclicity, ctx, p, "c2") < 128 * (1 << 10)


def test_exhaustive_cyclicity_memory_at_n12_bounded_by_its_blocks(
        monkeypatch):
    # Blocks of 128 rows of 4096 uint8 bits, 512 kB, and their images.
    # Whole row tables in word order, with their images, trace 65 MiB for c1
    # and 97 MiB for c2.
    monkeypatch.setattr(codes, "CYCLICITY_EXHAUSTIVE_MAX_N", 12)
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
    # Two popcount sweeps, gamma = 0 and gamma = 1, each over one span of
    # 1024 beta rows, 128 kB packed, and the closure proofs over the beta
    # and gamma tables in blocks of 512 rows, 1.5 MB with a block's image
    # and comparison. Walsh transforms of every (alpha, beta) pair over the
    # gamma axis take more.
    ctx, p = build_field(10), derive_params(10, 1)
    assert traced_peak(measured_weights, ctx, p, "c2") < 3 * (1 << 20)


def test_c1_sweep_memory_bounded_by_its_chunk():
    # The popcount sweep T reads: 512 beta rows of 4096 bits, 256 kB packed,
    # at a time, built and packed 128 rows at a time. A (2^m, q) table of
    # weights, an unpacked span or the q x q beta rows takes 2 MB or more.
    ctx, p = build_field(12), derive_params(12, 1)
    assert traced_peak(measured_weights, ctx, p, "c1") < 2 * (1 << 20)


@pytest.mark.parametrize("nk", [(10, 1), (10, 2), (12, 1), (12, 2)])
def test_c2_weights_match_the_formula_exhaustively(nk):
    ctx, p = build_field(nk[0]), derive_params(*nk)
    assert measured_weights(ctx, p, "c2").as_dict() == \
        weight_distribution_formula(p, "c2").as_dict()


def test_c2_memory_at_n12_bounded_by_the_gamma_table():
    # The closure proof reads the beta table in blocks of 128 rows of 4096
    # uint8 bits: a block read at pi x, the block of its images and their
    # comparison, 1.5 MB; the gamma-axis proof reads the gamma table in the
    # same blocks. The sweeps' spans are 256 kB packed. The q x q beta or
    # gamma table alone takes 16 MB.
    ctx, p = build_field(12), derive_params(12, 1)
    assert traced_peak(measured_weights, ctx, p, "c2") < 3 * (1 << 20)


def replace_row(monkeypatch, table, coeff, by):
    """Patch one row table of (6,1) wherever the package builds it: the row
    of coeff becomes the row of by. The alpha rows come from the trace rows;
    the beta rows Tr_n(b x^3) (e2 = 3 at k = 1) and the gamma table, the
    rows Tr_n(g x) over every g, from the trace bit matrix."""
    if table == "alpha":
        build = expsum._trace_rows

        def broken(ctx, params, alphas, *coeffs):
            rows = build(ctx, params, alphas, *coeffs)
            alphas = np.asarray(alphas, dtype=np.int64)
            if (alphas == by).any():
                rows[0][alphas == coeff] = rows[0][alphas == by][0]
            return rows

        monkeypatch.setattr(expsum, "_trace_rows", broken)
        return
    build = expsum.trace_bit_matrix

    def broken(ctx, e, coeffs):
        rows = build(ctx, e, coeffs)
        if table == "beta":
            ours = e == 3
        else:
            ours = e == 1 and len(coeffs) == ctx.q
        if ours:
            rows[np.asarray(coeffs) == coeff] = build(ctx, e, [by])[0]
        return rows

    monkeypatch.setattr(expsum, "trace_bit_matrix", broken)


@pytest.mark.parametrize("table", ["alpha", "beta", "gamma"])
def test_c2_count_needs_every_row_closed_under_pi(monkeypatch, table):
    # The gamma != 0 words are counted at gamma = 1 only, on the licence that
    # x -> pi x carries every row onto a row. The zero alpha row, or one
    # beta row, replaced by another row moves the c1 count, which reads the
    # same rows and needs no licence; the c2 count must refuse them. Two
    # rows of the gamma table exchanged leave each row linear and each
    # functional once, so only the closure of the gamma axis tells.
    ctx, p = build_field(6), derive_params(6, 1)
    c1 = measured_weights(ctx, p, "c1").as_dict()
    sub = subfield_elements(ctx, p.m)
    coeff, by = (sub[0], sub[2]) if table == "alpha" else (5, 6)
    replace_row(monkeypatch, table, coeff, by)
    if table == "gamma":
        replace_row(monkeypatch, table, by, coeff)
    else:
        assert measured_weights(ctx, p, "c1").as_dict() != c1
    with pytest.raises(VerificationError,
                       match=f"{table} rows are not closed under x -> pi x"):
        measured_weights(ctx, p, "c2")


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


def break_gamma_row(monkeypatch, flip=False):
    """Patch the rows Tr_n(g x) over every gamma, which only the gamma-axis
    proof builds: row 2 repeats row 1, or with flip, row 2 gets one bit
    flipped, so it is no linear functional at all."""
    build = expsum.trace_bit_matrix

    def broken(ctx, e, coeffs):
        rows = build(ctx, e, coeffs)
        if e == 1 and len(rows) == ctx.q:
            if flip:
                rows[2, 3] ^= 1
            else:
                rows[2] = rows[1]
        return rows

    monkeypatch.setattr(expsum, "trace_bit_matrix", broken)


@pytest.mark.parametrize("flip", [False, True], ids=["repeated", "nonlinear"])
def test_a_broken_gamma_axis_fails_every_walsh_sweep(tmp_path, monkeypatch,
                                                     flip):
    break_gamma_row(monkeypatch, flip)
    ctx, p = build_field(4), derive_params(4, 1)
    with pytest.raises(VerificationError, match="Tr_n"):
        measured_weights(ctx, p, "c2")
    with pytest.raises(VerificationError, match="Tr_n"):
        s_spectrum(ctx, p)
    assert measured_weights(ctx, p, "c1").total == 1 << 6
    assert main(["verify", "--n", "4", "--k", "1",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    status = {r["name"]: r["status"] for r in report["records"]}
    assert status["gamma-sweep"] == "mismatch"
    assert status["s-spectrum"] == "mismatch"
    assert status["code-weights-c2"] == "mismatch"
    assert status["code-weights-c1"] == "match"


def test_gamma_axis_is_proved_once_per_field(monkeypatch):
    built = []
    build = expsum.trace_bit_matrix

    def counted(ctx, e, coeffs):
        if e == 1 and len(coeffs) == ctx.q:
            built.append(ctx)
        return build(ctx, e, coeffs)

    monkeypatch.setattr(expsum, "trace_bit_matrix", counted)
    ctx, p = build_field(6), derive_params(6, 1)
    measured_weights(ctx, p, "c2")
    measured_weights(ctx, p, "c2")
    s_spectrum(ctx, p)
    assert built == [ctx]


def test_gamma_axis_memory_bounded_by_its_span():
    # Blocks of 128 gamma rows of 4096 uint8 bits, 512 kB, and the bits of
    # every row at x = 2^j and x = pi 2^j read as two int64 vectors. The
    # q x q gamma table alone takes 16 MB.
    assert traced_peak(expsum._gamma_axis, build_field(12)) < 8 * (1 << 20)


def test_gamma_axis_needs_pi_to_permute_the_field_linearly(monkeypatch):
    # x -> pi x with two images exchanged is still a permutation, but no
    # longer linear, so the bits of row g at pi 2^j no longer fix row g
    # read at pi x.
    mul = expsum._mul

    def swapped(ctx, x, y):
        out = mul(ctx, x, y)
        out[[1, 2]] = out[[2, 1]]
        return out

    monkeypatch.setattr(expsum, "_mul", swapped)
    with pytest.raises(VerificationError, match="permute the field linearly"):
        expsum._gamma_axis(build_field(4))

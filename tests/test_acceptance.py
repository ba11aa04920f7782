"""Acceptance battery: every contractual check, exact to the integer.

Each test prints one `acceptance NN <tag>: PASS/FAIL` line (visible under
`pytest -s` or in the captured output of a failing run) and asserts the
exact frozen values, tolerance zero.
"""

import json
import time
from collections import Counter

import numpy as np

import reference as ref
from kasamilab import (artin_schreier_points, bluher_counts,
                       bluher_counts_formula, build_family, build_field,
                       codeword_c2,
                       correlation_distribution,
                       correlation_distribution_formula,
                       correlation_table_printed, derive_params,
                       gamma_sweep_formula, kernel_dims, moment_targets,
                       moments, rank_profile, rank_profile_formula,
                       s_spectrum, s_spectrum_formula, subfield_elements,
                       t_spectrum, t_spectrum_formula, weight_distribution,
                       weight_distribution_formula)
from kasamilab.cli import main as cli_main
from kasamilab.expsum import _t_table, _trace_rows, _walsh
from kasamilab.field import rel_trace_table


def _verdict(tag, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{tag}{suffix}"


def test_01_t_spectrum_single_regime():
    ctx, p = build_field(4), derive_params(4, 1)
    t0 = time.perf_counter()
    brute = t_spectrum(ctx, p)
    elapsed = time.perf_counter() - t0
    expected = {16: 1, 4: 25, 0: 30, -4: 3, -8: 5}
    ok = (brute.as_dict() == expected
          and t_spectrum_formula(p).as_dict() == expected
          and elapsed < 0.1)
    _verdict("01 t-spectrum (4,1)", ok, f"{elapsed * 1000:.1f} ms")


def test_02_t_spectrum_two_regime():
    ctx, p = build_field(6), derive_params(6, 1)
    t0 = time.perf_counter()
    brute = t_spectrum(ctx, p)
    elapsed = time.perf_counter() - t0
    expected = {64: 1, -8: 280, 16: 210, -32: 21}
    formula = t_spectrum_formula(p)
    ok = (brute.as_dict() == expected
          and formula.as_dict() == expected
          and any("2^n" in note for note in formula.notes)  # misprint flagged
          and elapsed < 1.0)
    _verdict("02 t-spectrum (6,1)", ok, f"{elapsed * 1000:.0f} ms")


def test_03_moment_identities():
    frozen = {(4, 1): (64, 1024, 2944), (6, 1): (512, 97280, 290816)}
    ok = True
    for n in (4, 6, 8):
        ctx = build_field(n)
        m = n // 2
        for k in range(1, n):
            if k == m:
                continue
            p = derive_params(n, k)
            m1, _, _ = moments(t_spectrum(ctx, p), p)  # raises on mismatch
            t1, t2, t3 = moment_targets(p)
            ok &= m1 == t1 == 1 << (3 * m)
            if p.d_prime == p.d:
                ok &= t2 == 1 << (5 * m)
            else:
                ok &= t2 == (1 << (3 * m)) * ((1 << (n + p.d)) + (1 << n)
                                              - (1 << p.d))
            if (n, k) in frozen:
                ok &= (t1, t2, t3) == frozen[(n, k)]
    _verdict("03 moments n in {4,6,8}", ok)


def test_04_rank_profile():
    p41, p62 = derive_params(4, 1), derive_params(6, 2)
    prof41 = rank_profile(kernel_dims(build_field(4), p41))
    prof62 = rank_profile(kernel_dims(build_field(6), p62))
    form41 = rank_profile_formula(p41)
    form62 = rank_profile_formula(p62)
    ok = (prof41[:2] == (28, 35) and prof62[1] == 315
          and prof41 == form41 and prof62 == form62)
    _verdict("04 rank profiles (4,1)/(6,2)", ok)


def test_05_bluher_counts():
    bc42 = bluher_counts(build_field(4), 2)
    bc62 = bluher_counts(build_field(6), 2)
    ok = bc42 == (6, 4, 5, 0) and bc62 == (26, 15, 21, 1)
    for l in (4, 6):
        ctx = build_field(l)
        for h in range(1, l):
            ok &= bluher_counts(ctx, h) == bluher_counts_formula(l, h)
    _verdict("05 root-count tables l in {4,6}", ok)


def test_06_point_count_identity():
    ctx, p = build_field(6), derive_params(6, 1)
    t0 = time.perf_counter()
    factor = (1 << p.d) - 1
    sub = subfield_elements(ctx, p.m)
    t = _t_table(ctx, p, _trace_rows(ctx, p, sub, [], [])[0], range(64))
    ok = True
    for alpha_prime in range(64):
        trp = rel_trace_table(ctx, p.m, p.n)[alpha_prime]
        for beta in range(64):
            if alpha_prime == 0 and beta == 0:
                continue
            lhs = artin_schreier_points(ctx, p, alpha_prime, beta)
            ok &= lhs == (1 << p.n) + factor * t[sub.index(trp), beta]
    elapsed = time.perf_counter() - t0
    _verdict("06 point counts (6,1), 4095 pairs",
             ok and elapsed < 30.0, f"{elapsed:.1f} s")


def test_07_s_spectrum():
    ctx, p = build_field(4), derive_params(4, 1)
    brute = s_spectrum(ctx, p)
    expected = {16: 1, 8: 105, 4: 280, 0: 435, -4: 168, -8: 35}
    ok = (brute.as_dict() == expected
          and s_spectrum_formula(p).as_dict() == expected
          and brute.count(0) == 435)  # the zero-count parameter
    _verdict("07 s-spectrum (4,1)", ok)


def test_08_code_weights():
    ctx, p = build_field(4), derive_params(4, 1)
    expected = {
        "c1": {0: 1, 6: 25, 8: 30, 10: 3, 12: 5},
        "c2": {0: 1, 4: 105, 6: 280, 8: 435, 10: 168, 12: 35},
    }
    spectra = {"c1": t_spectrum(ctx, p), "c2": s_spectrum(ctx, p)}
    # The oracle's Hamming weight of every word; the gamma = 0 words are C1.
    oracle = {"c1": Counter(), "c2": Counter()}
    for a in ref.subfield(2, 0x13, 4):
        for b in range(16):
            for g in range(16):
                w = sum(ref.codeword_bits_c2(a, b, g, 1, 0x13, 4))
                oracle["c2"][w] += 1
                if g == 0:
                    oracle["c1"][w] += 1
    ok = True
    for code in ("c1", "c2"):
        brute = weight_distribution(spectra[code], p, code)
        ok &= brute.as_dict() == expected[code]
        ok &= dict(oracle[code]) == expected[code]
        ok &= weight_distribution_formula(p, code).as_dict() == expected[code]
    words = [codeword_c2(ctx, p, a, b, g)
             for a in subfield_elements(ctx, 2)
             for b in range(16) for g in range(16)]
    packed = np.packbits(np.array(words), axis=1)
    ok &= len(np.unique(packed, axis=0)) == 1 << 10    # |C2| injective
    ok &= len(np.unique(packed[::16], axis=0)) == 1 << 6  # gamma=0 slice = C1
    _verdict("08 code weights (4,1)", ok)


def test_09_sequence_family():
    ctx, p = build_field(4), derive_params(4, 1)
    t0 = time.perf_counter()
    fam = build_family(ctx, p)
    hist = correlation_distribution(fam)
    elapsed = time.perf_counter() - t0
    printed = {v: int(c) for v, c in correlation_table_printed(p)}
    ok = (fam.size == 67
          and np.unpackbits(fam.rows, axis=1, count=15,
                            bitorder="little").shape == (67, 15)
          and ref.check_inequivalence(fam)
          and hist.total == 67335
          and hist.count(15) == 67
          and hist.as_dict() == printed
          and elapsed < 10.0)
    _verdict("09 family (4,1)", ok, f"{elapsed:.2f} s")


def test_10_gamma_sweep_per_pair():
    ctx, p = build_field(4), derive_params(4, 1)
    q0, s = p.q0, p.s
    arows, brows, _ = _trace_rows(ctx, p, subfield_elements(ctx, 2),
                                  range(16), [])
    walsh = _walsh((arows[:, None, :] ^ brows[None, :, :]).reshape(-1, 16))
    walsh = walsh.reshape(4, 16, 16)
    ranks = s - ref.kernel_dims(ctx, p)
    ok = True
    for ai in range(4):
        for beta in range(16):
            if ai == 0 and beta == 0:
                continue
            rank = int(ranks[ai, beta])
            dist = dict(Counter(walsh[ai, beta].tolist()))
            mag = q0 ** (s - rank // 2)
            ok &= dist == gamma_sweep_formula(p, rank).as_dict()
            ok &= dist.get(0, 0) == q0 ** s - q0 ** rank
            ok &= dist.get(mag, 0) == (q0 ** rank + q0 ** (rank // 2)) // 2
            ok &= dist.get(-mag, 0) == (q0 ** rank - q0 ** (rank // 2)) // 2
    _verdict("10 per-pair sweeps (4,1), 63 pairs", ok)


def test_11_erratum_flow(tmp_path):
    ctx, p = build_field(6), derive_params(6, 1)
    brute = correlation_distribution(build_family(ctx, p))
    composed = correlation_distribution_formula(p)
    out = tmp_path / "verify61"
    code = cli_main(["verify", "--n", "6", "--k", "1", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    st = {r["name"]: r["status"] for r in report["records"]}
    ok = (brute.total == 16515072                       # histogram produced
          and brute.as_dict() == composed.as_dict()
          and any("offset applied" in n for n in composed.notes)
          and code == 3                                 # erratum-only exit
          and st["correlation"] == "flagged-erratum"
          and "mismatch" not in set(st.values()))
    _verdict("11 misprint flow (6,1)", ok, f"verify exit {code}")

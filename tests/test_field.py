"""Field arithmetic, parameter derivation, and table construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from kasamilab import (VerificationError, build_field, derive_params, expsum,
                       find_primitive_polynomial, is_irreducible, is_primitive,
                       subfield_elements)
from kasamilab.field import (_cycles, _gf2_linear, _mul, _orbit_lemma,
                             power_table, rel_trace_table)

# Lexicographically smallest primitive moduli, frozen from the naive oracle.
MODULI = {4: 0x13, 6: 0x43, 8: 0x11D, 10: 0x409, 12: 0x1053}


@pytest.mark.parametrize("n,mask", sorted(MODULI.items()))
def test_default_modulus(n, mask):
    assert find_primitive_polynomial(n) == mask
    assert build_field(n).modulus == mask


@pytest.mark.parametrize("n", [4, 6, 8])
def test_default_modulus_matches_oracle(n):
    assert find_primitive_polynomial(n) == ref.smallest_primitive(n)


def test_irreducible_but_not_primitive():
    # x^4+x^3+x^2+x+1 divides x^5+1, so x has order 5 < 15.
    assert is_irreducible(0x1F, 4)
    assert not is_primitive(0x1F, 4)
    with pytest.raises(ValueError):
        build_field(4, modulus=0x1F)


def test_reducible_rejected():
    assert not is_irreducible(0x11, 4)  # x^4+1 = (x+1)^4
    assert not is_irreducible(-0x13, 4)  # bit_length 5, but no polynomial
    with pytest.raises(ValueError):
        build_field(4, modulus=0x11)


def test_exp_log_tables(ctx4):
    q = 1 << 4
    assert len(ctx4.exp_table) == q - 1
    assert sorted(ctx4.exp_table) == list(range(1, q))
    for i, x in enumerate(ctx4.exp_table):
        assert ctx4.log_table[x] == i
        assert x == ref.gf2_pow(2, i, 0x13, 4)


def test_mul_matches_oracle(ctx6):
    for a in (1, 2, 7, 35, 62):
        for b in (1, 3, 21, 50, 63):
            assert ctx6.mul(a, b) == ref.gf2_mul(a, b, 0x43, 6)


def test_trace_table_matches_oracle(ctx6):
    for x in range(64):
        assert rel_trace_table(ctx6, 1, 6)[x] == \
            ref.trace_rel(x, 1, 6, 0x43, 6)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=200)
def test_field_axioms(a, b, c):
    ctx = build_field(8)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
    assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
    assert ctx.mul(a, 1) == a


@given(st.integers(1, 255))
@settings(max_examples=100)
def test_inverse(a):
    # x^(q-2) is the inverse table the Bluher sweep divides by.
    ctx = build_field(8)
    assert ctx.mul(a, power_table(ctx, ctx.order - 1)[a]) == 1


def test_inverse_of_zero_rejected(ctx4):
    with pytest.raises(ZeroDivisionError):
        ctx4.pow(0, -1)


@given(st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=100)
def test_trace_additive_and_frobenius_stable(a, b):
    ctx = build_field(8)
    tr = rel_trace_table(ctx, 1, 8)
    assert tr[a ^ b] == tr[a] ^ tr[b]
    assert tr[ctx.mul(a, a)] == tr[a]


def test_trace_balanced(ctx8):
    assert int(rel_trace_table(ctx8, 1, 8).sum()) == 128


def test_relative_trace_lands_in_subfield(ctx8):
    sub = set(subfield_elements(ctx8, 4))
    for x in range(256):
        assert rel_trace_table(ctx8, 4, 8)[x] in sub


def test_trace_tower(ctx8):
    # Tr_1^n = tr_1^m composed with Tr_m^n.
    for x in range(256):
        y = rel_trace_table(ctx8, 4, 8)[x]
        assert ref.trace_rel(x, 1, 8, 0x11D, 8) == \
            rel_trace_table(ctx8, 1, 4)[y]


def test_subfield_is_closed(ctx6):
    sub = subfield_elements(ctx6, 3)
    assert len(sub) == 8 and sub[0] == 0 and 1 in sub
    elems = set(sub)
    for a in sub:
        for b in sub:
            assert a ^ b in elems and ctx6.mul(a, b) in elems


def test_subfield_matches_oracle(ctx6):
    assert subfield_elements(ctx6, 3) == ref.subfield(3, 0x43, 6)


def test_subfield_requires_divisor(ctx6):
    with pytest.raises(ValueError):
        subfield_elements(ctx6, 4)


@pytest.mark.parametrize("n,k,case,d,d_prime", [
    (4, 1, "EvenM", 1, 1),
    (4, 3, "EvenM", 1, 1),
    (6, 1, "BothOdd", 1, 2),
    (6, 2, "EvenK", 1, 1),
    (6, 4, "EvenK", 1, 1),
    (6, 5, "BothOdd", 1, 2),
    (8, 1, "EvenM", 1, 1),
    (8, 2, "EvenM", 2, 2),
    (8, 3, "EvenM", 1, 1),
    (10, 1, "BothOdd", 1, 2),
    (10, 2, "EvenK", 1, 1),
    (12, 2, "BothOdd", 2, 4),
    (12, 4, "EvenK", 2, 2),
])
def test_derive_params_cases(n, k, case, d, d_prime):
    p = derive_params(n, k)
    assert (p.case, p.d, p.d_prime) == (case, d, d_prime)
    assert p.m == n // 2 and p.q0 == 1 << p.d and p.s == n // p.d
    assert p.s % 2 == 0
    assert p.e_norm == (1 << p.m) + 1 and p.e_quad == (1 << k) + 1


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (4, 2), (6, 3), (4, 0), (4, 4), (2, 1)])
def test_derive_params_rejects(n, k):
    with pytest.raises(ValueError):
        derive_params(n, k)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_k_reflection_symmetry(n):
    for k in range(1, n):
        if k == n // 2:
            continue
        a, b = derive_params(n, k), derive_params(n, n - k)
        assert (a.case, a.d, a.d_prime, a.s) == (b.case, b.d, b.d_prime, b.s)


def test_power_table(ctx4):
    tab = power_table(ctx4, 5)
    for x in range(16):
        assert tab[x] == ref.gf2_pow(x, 5, 0x13, 4)


def test_mul_matches_oracle_on_every_pair(ctx4):
    elems = np.arange(16)
    table = _mul(ctx4, elems[:, None], elems[None, :])
    assert table.shape == (16, 16)
    for a in range(16):
        assert _mul(ctx4, a, elems).tolist() == table[a].tolist()
        for b in range(16):
            assert table[a, b] == ref.gf2_mul(a, b, 0x13, 4)
    assert ctx4.log_table[0] == -1


def test_scale_table(ctx4):
    tab = _mul(ctx4, 7, np.arange(16))
    for x in range(16):
        assert tab[x] == ref.gf2_mul(7, x, 0x13, 4)


def test_rel_trace_table(ctx8):
    tab = rel_trace_table(ctx8, 1, 8)
    for x in range(256):
        assert tab[x] == ref.trace_rel(x, 1, 8, 0x11D, 8)


def test_every_cached_array_is_read_only():
    # The power and relative-trace tables, both `_mul` tables and the step
    # x -> pi x the orbit lemma keeps: a write into any of them would change
    # every later product, row and proof of the field.
    ctx = build_field(6)
    power_table(ctx, 3), rel_trace_table(ctx, 1, 3), _mul(ctx, 2, 3)
    _orbit_lemma(ctx)
    assert {("pow", 3), ("rtr", 1, 3), "mul", "orbit lemma"} <= \
        set(ctx._cache)
    kept = [array for value in ctx._cache.values()
            for array in (value if isinstance(value, tuple) else [value])]
    for array in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


def product_path(ctx, e, coeffs):
    """The package's rows Tr(c x^e), built by `expsum._rows` through the
    field product and the x^e table."""
    return expsum._rows(ctx, coeffs, e, rel_trace_table(ctx, 1, ctx.n))


@pytest.mark.parametrize("n", range(2, 9))
def test_rotation_rows_equal_the_product_path(n):
    # The m-sequence oracle's rows, every c against every x, c = 0 and x = 0
    # included.
    ctx = build_field(n)
    elems = np.arange(ctx.q)
    bits = product_path(ctx, 1, elems)
    assert bits.dtype == np.uint8
    assert (bits == ref.trace_bit_matrix(ctx, 1, elems)).all()


@pytest.mark.parametrize("n", [10, 12])
def test_rotation_rows_equal_the_product_path_sampled(n):
    ctx = build_field(n)
    rng = np.random.default_rng(n)
    coeffs = np.concatenate([[0], rng.choice(np.arange(1, ctx.q), 63,
                                             replace=False)])
    for e in (1, 3):
        assert (ref.trace_bit_matrix(ctx, e, coeffs)
                == product_path(ctx, e, coeffs)).all()


@pytest.mark.parametrize("n,mod", [(4, 0x13), (6, 0x43), (6, 0x61)])
def test_rotation_rows_match_oracle(n, mod):
    ctx = build_field(n, mod)
    q = 1 << n
    bits = ref.trace_bit_matrix(ctx, 1, np.arange(q))
    want = [[ref.trace_rel(ref.gf2_mul(c, b, mod, n), 1, n, mod, n)
             for b in range(q)] for c in range(q)]
    assert bits.tolist() == want


def test_cycles_numbered_by_least_index():
    # Cycles (0 3), (1), (2 4) and (5).
    orbit, reps, sizes = _cycles(np.array([3, 1, 4, 0, 2, 5]), 2)
    assert orbit.tolist() == [0, 1, 2, 0, 2, 3]
    assert reps.tolist() == [0, 1, 2, 5]
    assert sizes.tolist() == [2, 1, 2, 1]


@pytest.mark.parametrize("perm", [[1, 2, 0], [1, 1, 2]])
def test_cycles_reject_a_map_not_returning_in_n_steps(perm):
    # A 3-cycle, and a map that is no bijection.
    with pytest.raises(VerificationError, match="2 steps of the map"):
        _cycles(np.array(perm), 2)


def test_gf2_linear_row_by_row(ctx4):
    rows = np.stack([power_table(ctx4, 2), _mul(ctx4, 7, np.arange(16)),
                     power_table(ctx4, 3), np.arange(16) ^ 1])
    assert _gf2_linear(rows).tolist() == [True, True, False, False]

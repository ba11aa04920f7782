"""Correctness rules for one verify run, the work it verified, and the
modulus each seed chooses.

Everything here is computed from (n, k), the seed and the report; nothing is
read from kasamilab's internals.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# verify's exit code at each grid point, whatever the primitive modulus.
EXIT_CODES = {(6, 1): 3, (6, 2): 0, (8, 2): 3, (10, 1): 3, (10, 2): 0,
              (12, 1): 0}

SKIPPED = "skipped"
# A record skipped in the expected report may run instead and pass.
FROM_SKIPPED = (SKIPPED, "match", "flagged-erratum")


def expected_report(n, k):
    """Bytes of the reference report at (n, k), default modulus."""
    return (EXPECTED_DIR / f"n{n}k{k}.json").read_bytes()


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def compare_reports(expected, actual, modulus=None):
    """Reasons why `actual` (report.json bytes) fails against `expected`.

    With the default modulus (`modulus` None) the report must be
    byte-identical to the expected one. With another modulus it must name
    that modulus and keep the exit code and every record's name, status and
    notes; details may differ. Either way a record skipped in the expected
    report may instead match or be flagged.
    """
    try:
        got = json.loads(actual)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    want = json.loads(expected)
    if modulus is not None:
        want["modulus"] = f"{modulus:#x}"
    reasons = [f"{key}: expected {want.get(key)!r}, got {got.get(key)!r}"
               for key in sorted((set(want) | set(got)) - {"records"})
               if want.get(key) != got.get(key)]
    wrecs, grecs = want["records"], got.get("records") or []
    if [r["name"] for r in wrecs] != [r.get("name") for r in grecs]:
        return reasons + ["record names or order differ"]
    fields = ("status", "notes") if modulus is not None else (
        "status", "notes", "detail")
    allowed = []
    for w, g in zip(wrecs, grecs):
        if w["status"] == SKIPPED:
            if g.get("status") not in FROM_SKIPPED:
                reasons.append(f"{w['name']}: skipped record became "
                               f"{g.get('status')!r}")
            allowed.append(g)
            continue
        reasons += [f"{w['name']}: {f} expected {w[f]!r}, got {g.get(f)!r}"
                    for f in fields if w[f] != g.get(f)]
        allowed.append(w)
    if (modulus is None and not reasons
            and _dumps({**want, "records": allowed}).encode() != actual):
        reasons.append("report bytes differ from the expected report")
    return reasons


def family_size(n, k):
    """Members of the sequence family at (n, k)."""
    m = n // 2
    d = gcd(m, k)
    base = 1 << (3 * m)
    if (m // d) % 2 == 0:
        return base + (1 << m) - 1
    if (k // d) % 2 == 0:
        return base + (1 << m)
    return base


def verified_total(n, k, report):
    """Brute-force values the report's non-skipped checks had to cover.

    Each check contributes the total of the multiset it measures: T pairs,
    S triples, codewords, correlation triples |F|^2 L, rank pairs, Bluher
    b-values, gamma-sweep pairs times q, and curves.
    """
    m = n // 2
    q = 1 << n
    pairs = 1 << (3 * m)
    c1, c2 = 1 << (3 * m), 1 << (5 * m)
    totals = {
        "bluher-counts": (n - 1) * (q - 1),
        "rank-profile": pairs - 1,
        "moments": pairs,
        "t-spectrum": pairs,
        "s-spectrum": pairs * q,
        "gamma-sweep": (pairs - 1) * q,
        "artin-schreier": q * q - 1,
        "code-weights-c1": c1,
        "code-weights-c2": c2,
        # Every codeword up to n = 6; above that verify checks a sample.
        "cyclicity": c1 + c2 if n <= 6 else 0,
        "correlation": family_size(n, k) ** 2 * (q - 1),
    }
    return sum(totals.get(r["name"], 0) for r in report["records"]
               if r["status"] != SKIPPED)


def checks_run(report):
    return sum(1 for r in report["records"] if r["status"] != SKIPPED)


def _polymulmod(a, b, mod, n):
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if (a >> n) & 1:
            a ^= mod
    return out


def _xpow(e, mod, n):
    """x^e modulo the degree-n polynomial `mod` over GF(2)."""
    out, base = 1, 2
    while e:
        if e & 1:
            out = _polymulmod(out, base, mod, n)
        base = _polymulmod(base, base, mod, n)
        e >>= 1
    return out


def _prime_factors(x):
    out, p = [], 2
    while p * p <= x:
        if x % p == 0:
            out.append(p)
            while x % p == 0:
                x //= p
        p += 1
    return out + ([x] if x > 1 else [])


def primitive_moduli(n):
    """Masks of the degree-n primitive polynomials over GF(2), ascending.

    x has order exactly 2^n - 1 modulo such a polynomial, which also makes
    the quotient ring a field, so the polynomial is irreducible.
    """
    order = (1 << n) - 1
    primes = _prime_factors(order)
    return [mask for mask in range((1 << n) | 1, 1 << (n + 1), 2)
            if _xpow(order, mask, n) == 1
            and all(_xpow(order // p, mask, n) != 1 for p in primes)]


def choose_modulus(n, seed):
    """The modulus seed `seed` passes for degree n; None (the program's
    default) for seed 0."""
    if seed == 0:
        return None
    return random.Random(f"{seed}/{n}").choice(primitive_moduli(n))

"""Every closed form at every supported (n, k), 4 <= n <= 24.

Brute force reaches only small n, so these tests tie the closed forms to one
another at every n the command line accepts: the T table's power moments, the
rank profile against the T multiplicities, and the S table as the γ-sweep law
of each rank summed over the rank profile. A frozen digest pins every
closed-form output byte for byte.
"""

import hashlib
import json

from kasamilab import (ValueDistribution, bluher_counts_formula,
                       correlation_distribution_formula,
                       correlation_table_printed, derive_params,
                       gamma_sweep_formula, moment_targets,
                       rank_profile_formula, s_spectrum_formula,
                       t_spectrum_formula, weight_distribution_formula)

PARAMS = [derive_params(n, k) for n in range(4, 25, 2)
          for k in range(1, n) if k != n // 2]

# sha256 of closed_form_outputs(), frozen before the closed forms were
# rewritten onto shared terms.
DIGEST = "588fa303d749726ef25b317a5fe37d8469aa42b0af677aa1328f865cdc8a7e7e"


def test_t_moments_equal_the_moment_targets():
    for p in PARAMS:
        t = t_spectrum_formula(p)
        got = tuple(sum(v ** e * c for v, c in t.entries) for e in (1, 2, 3))
        assert got == moment_targets(p), (p.n, p.k)


def test_rank_profile_groups_the_t_multiplicities():
    # |T| = 2^m at rank s, 0 or 2^(m+d) at rank s - 2, 2^(m+2d) at s - 4;
    # the (0, 0) row at 2^n has no form.
    for p in PARAMS:
        rank_of_value = {1 << p.m: "n0", 0: "n2", 1 << (p.m + p.d): "n2",
                         1 << (p.m + 2 * p.d): "n4"}
        grouped = {"n0": 0, "n2": 0, "n4": 0}
        for v, c in t_spectrum_formula(p).entries:
            if v != p.q:
                grouped[rank_of_value[abs(v)]] += c
        assert tuple(grouped.values()) == rank_profile_formula(p), (p.n, p.k)


def test_s_table_sums_the_gamma_laws_over_the_rank_profile():
    for p in PARAMS:
        counts = {p.q: 1, 0: p.q - 1}  # the (0, 0) row
        for rank, pairs in zip((p.s, p.s - 2, p.s - 4),
                               rank_profile_formula(p)):
            if pairs:
                for v, c in gamma_sweep_formula(p, rank).entries:
                    counts[v] = counts.get(v, 0) + pairs * c
        assert (s_spectrum_formula(p)
                == ValueDistribution.from_counts(counts)), (p.n, p.k)


def _dist(dist):
    return {"entries": dist.entries, "notes": dist.notes}


def closed_form_outputs():
    """Canonical JSON of every closed-form output, over all PARAMS."""
    out = []
    for p in PARAMS:
        out.append({
            "nk": (p.n, p.k),
            "t": _dist(t_spectrum_formula(p)),
            "s": _dist(s_spectrum_formula(p)),
            "rank": rank_profile_formula(p),
            "moments": moment_targets(p),
            "gamma": [_dist(gamma_sweep_formula(p, r))
                      for r in range(0, p.s + 1, 2)],
            "weights": [_dist(weight_distribution_formula(p, c))
                        for c in ("c1", "c2")],
            "correlation": _dist(correlation_distribution_formula(p)),
            "printed": [(v, str(c)) for v, c in correlation_table_printed(p)],
            "bluher": [bluher_counts_formula(p.n, h) for h in range(1, p.n)],
        })
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def test_closed_form_outputs_frozen():
    digest = hashlib.sha256(closed_form_outputs().encode()).hexdigest()
    assert digest == DIGEST

"""Verification laboratory for a family of binary sequences built from
norm and quadratic trace forms over GF(2^n), together with their cyclic
codes and exponential-sum distributions.

Everything is computed twice — once by independent brute force over the
field, once from closed-form tables — and the two sides are compared
exactly. Known misprints in the tabulated forms are flagged in result
notes rather than silently corrected.
"""

import os

# Read once by OpenBLAS as numpy loads: an idle worker spins 2^18 cycles
# (about 0.1 ms), not 2^28 (0.1 s), before it sleeps, so it sleeps between
# products rather than burn a second core.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "18")

from .distribution import ValueDistribution, VerificationError, pack_bits_hex
from .field import (FieldContext, Params, build_field, derive_params,
                    find_primitive_polynomial, is_irreducible, is_primitive,
                    subfield_elements)
from .linearized import (bluher_counts, bluher_counts_formula, kernel_dims,
                         rank_profile, rank_profile_formula)
from .expsum import (artin_schreier_points, gamma_sweep_formula,
                     moment_targets, moments, s_spectrum, s_spectrum_formula,
                     t_spectrum, t_spectrum_formula)
from .codes import (check_cyclicity, check_parity, code_dimension,
                    codeword_c1, codeword_c2, codeword_dump_lines,
                    h_polynomials, minimal_poly, parity_check_mask,
                    weight_distribution, weight_distribution_formula)
from .sequences import (SequenceFamily, build_family, correlation_distribution,
                        correlation_distribution_formula,
                        correlation_table_printed, family_dump_lines,
                        family_size)

__version__ = "0.1.0"

__all__ = [
    "ValueDistribution", "VerificationError", "pack_bits_hex",
    "FieldContext", "Params", "build_field", "derive_params",
    "find_primitive_polynomial", "is_irreducible", "is_primitive",
    "subfield_elements",
    "bluher_counts", "bluher_counts_formula", "kernel_dims", "rank_profile",
    "rank_profile_formula",
    "artin_schreier_points", "gamma_sweep_formula", "moment_targets",
    "moments", "s_spectrum", "s_spectrum_formula", "t_spectrum",
    "t_spectrum_formula",
    "check_cyclicity", "check_parity", "code_dimension", "codeword_c1",
    "codeword_c2", "codeword_dump_lines", "h_polynomials", "minimal_poly",
    "parity_check_mask", "weight_distribution", "weight_distribution_formula",
    "SequenceFamily", "build_family", "correlation_distribution",
    "correlation_distribution_formula", "correlation_table_printed",
    "family_dump_lines", "family_size",
]

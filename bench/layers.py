"""The layers the benchmark traces and the per-layer metrics it derives.

The layers are kasamilab's modules. Each public function defined in a layer
module is traced as `<layer>.<function>`, and each public method of
`distribution.ValueDistribution`, the type every layer returns its
measurements in, as `distribution.ValueDistribution.<method>`. Methods of
`field.FieldContext` are left out: they are per-element arithmetic, called
hundreds of thousands of times, and would cost more to trace than they run.

Work counts (S triples, codewords, Bluher b-values, correlation flops and
bytes) are computed from each call's arguments, not read from the program.
"""

from __future__ import annotations

import importlib
import inspect

import tracer as tr

LAYERS = ("cli", "field", "linearized", "expsum", "codes", "sequences",
          "distribution")
CLASSES = {"distribution": ("ValueDistribution",)}

# The float32 product and its intp copy, per pair of members and shift.
_CORR_BYTES_PER_ENTRY = 4 + 8


def _by_parameter(fn, count):
    """Work function for `fn`: `count` gets the call's arguments by name."""
    sig = inspect.signature(fn)
    return lambda *args, **kwargs: count(sig.bind(*args, **kwargs).arguments)


def _s_triples(a):
    return {"triples": (1 << (3 * a["params"].m)) * a["ctx"].q}


def _words(a):
    dim = 3 if a["code"] == "c1" else 5
    return {"words": 1 << (dim * a["params"].m)}


def _bluher(a):
    return {"evals": a["ctx"].q - 1}


def _corr(a):
    # Computed for the sweep as first benchmarked: (L + 1) / 2 shifts, each a
    # |F| x L by L x |F| product (2|F|^2 L flops).
    members = a["family"].members
    count = len(members)
    length = len(members[0].bits)
    shifts = (length + 1) // 2
    return {"flops": 2 * count * count * length * shifts,
            "bytes": shifts * count * count * _CORR_BYTES_PER_ENTRY}


WORK = {
    "expsum.s_spectrum": _s_triples,
    "codes.weight_distribution": _words,
    "linearized.bluher_counts": _bluher,
    "sequences.correlation_distribution": _corr,
}


def modules():
    """Every kasamilab module whose namespace may hold a traced function."""
    return [importlib.import_module("kasamilab")] + [
        importlib.import_module(f"kasamilab.{layer}") for layer in LAYERS]


def targets():
    """(functions, classes, work) to pass to `tracer.installed`."""
    functions, classes = {}, {}
    for layer in LAYERS:
        mod = importlib.import_module(f"kasamilab.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                functions[f"{layer}.{attr}"] = obj
        for cname in CLASSES.get(layer, ()):
            classes[f"{layer}.{cname}"] = getattr(mod, cname)
    work = {name: _by_parameter(functions[name], count)
            for name, count in WORK.items()}
    return functions, classes, work


# Each per-layer metric is (name, unit, better, parts). `parts(spans, index)`
# returns additive parts for one verify run; the parts of every run in a pass
# are summed, then a one-part metric is its sum and a two-part metric the
# first sum divided by the second.

def _busy(*names):
    return lambda spans, index: (tr.busy_s(index, names),)


def _calls(*names):
    return lambda spans, index: (tr.calls(index, names),)


def _work(key, *names):
    return lambda spans, index: (tr.work_sum(index, names, key),)


def _rate(key, scale, *names):
    return lambda spans, index: (tr.work_sum(index, names, key) * scale,
                                 tr.busy_s(index, names))


def _layer_self(layer):
    def parts(spans, index):
        names = [n for n in index if n.startswith(layer + ".")]
        return (tr.self_s(spans, index, names),)
    return parts


PER_LAYER = [
    ("cli.self_s", "s", "lower", _layer_self("cli")),
    ("field.build_field_s", "s", "lower", _busy("field.build_field")),
    ("field.trace_bit_matrix_s", "s", "lower",
     _busy("field.trace_bit_matrix")),
    ("field.trace_bit_matrix_calls", "count", "lower",
     _calls("field.trace_bit_matrix")),
    ("field.power_table_calls", "count", "lower",
     _calls("field.power_table")),
    ("linearized.bluher_s", "s", "lower", _busy("linearized.bluher_counts")),
    ("linearized.bluher_evals", "count", "lower",
     _work("evals", "linearized.bluher_counts")),
    ("linearized.rank_profile_s", "s", "lower",
     _busy("linearized.rank_profile")),
    ("linearized.rank_of_s", "s", "lower", _busy("linearized.rank_of")),
    ("linearized.rank_of_calls", "count", "lower",
     _calls("linearized.rank_of")),
    ("expsum.t_spectrum_s", "s", "lower", _busy("expsum.t_spectrum")),
    ("expsum.t_spectrum_calls", "count", "lower",
     _calls("expsum.t_spectrum")),
    ("expsum.s_spectrum_s", "s", "lower", _busy("expsum.s_spectrum")),
    ("expsum.s_triples_per_s", "1/s", "higher",
     _rate("triples", 1.0, "expsum.s_spectrum")),
    ("expsum.gamma_sweep_s", "s", "lower", _busy("expsum.gamma_sweep")),
    ("expsum.gamma_sweep_calls", "count", "lower",
     _calls("expsum.gamma_sweep")),
    ("expsum.artin_schreier_s", "s", "lower",
     _busy("expsum.artin_schreier_points")),
    ("expsum.t_sum_calls", "count", "lower", _calls("expsum.t_sum")),
    ("codes.check_cyclicity_s", "s", "lower", _busy("codes.check_cyclicity")),
    ("codes.codeword_calls", "count", "lower",
     _calls("codes.codeword_c1", "codes.codeword_c2")),
    ("codes.weight_distribution_s", "s", "lower",
     _busy("codes.weight_distribution")),
    ("codes.words_per_s", "1/s", "higher",
     _rate("words", 1.0, "codes.weight_distribution")),
    ("sequences.correlation_s", "s", "lower",
     _busy("sequences.correlation_distribution")),
    ("sequences.corr_gflop_per_s", "GFLOP/s", "higher",
     _rate("flops", 1e-9, "sequences.correlation_distribution")),
    ("sequences.corr_bytes_computed", "B", "lower",
     _work("bytes", "sequences.correlation_distribution")),
    ("sequences.build_family_s", "s", "lower",
     _busy("sequences.build_family")),
    ("sequences.inequivalence_s", "s", "lower",
     _busy("sequences.check_inequivalence")),
    ("expsum.formula_s", "s", "lower",
     _busy("expsum.t_spectrum_formula", "expsum.s_spectrum_formula",
           "expsum.gamma_sweep_formula", "expsum.moment_targets")),
    ("sequences.formula_s", "s", "lower",
     _busy("sequences.correlation_distribution_formula",
           "sequences.correlation_table_printed", "sequences.family_size")),
    ("distribution.diff_s", "s", "lower",
     _busy("distribution.ValueDistribution.diff")),
]


def run_parts(spans):
    """Parts of every per-layer metric for one traced verify run."""
    index = tr.by_name(spans)
    return {name: list(parts(spans, index))
            for name, _unit, _better, parts in PER_LAYER}


def combine(parts):
    """Value of one metric from its parts summed over a pass."""
    if len(parts) == 1:
        return parts[0]
    numer, denom = parts
    return numer / denom if denom else 0.0

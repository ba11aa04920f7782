"""Command-line entry point: compute, cross-check, and report.

Every subcommand derives parameters, builds the field, runs its checks from
one registry (each a brute-force measurement next to its closed-form
prediction), and writes a deterministic report.json (no timings, no worker
counts) into the output directory. Exit codes: 0 all checks match, 1 usage
error, 2 mismatch or a check raised, 3 matches except for flagged tabulation
errata.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

from .codes import (CODES, check_cyclicity, check_parity, code_dimension,
                    codeword_c1, codeword_c2, codeword_dump_lines,
                    h_polynomials, parity_check_mask, weight_distribution,
                    weight_distribution_formula)
from .distribution import VerificationError
from .expsum import (artin_schreier_sweep, gamma_sweep, moments, s_spectrum,
                     s_spectrum_formula, t_spectrum, t_spectrum_formula)
from .field import (_gf2_polymod, build_field, derive_params, is_irreducible,
                    subfield_elements)
from .linearized import (bluher_counts, bluher_counts_formula, kernel_dims,
                         rank_profile, rank_profile_formula)
from .sequences import (build_family, correlation_distribution,
                        correlation_distribution_formula, family_dump_lines)

__all__ = ["main", "CheckRecord", "VerificationReport", "DEFAULT_BUDGETS"]

MATCH = "match"
MISMATCH = "mismatch"
FLAGGED = "flagged-erratum"
SKIPPED = "skipped"
ERROR = "error"

DEFAULT_BUDGETS = {
    "t_spectrum": 12,
    "s_spectrum": 10,
    "correlation": 8,
    "code_weights": 8,
    "rank_profile": 8,
    "bluher": 10,
    "artin_schreier": 8,
    "gamma_sweep": 6,
}

# Above this n the family record names no rotation-distinctness verdict, the
# wording `bench/expected/n8k2.json` freezes; the next budget change deletes it.
INEQUIVALENCE_MAX_N = 6

# Above this n the cyclicity record reads "(sampled)", not "(exhaustive)",
# the wording `bench/expected/n8k2.json` freezes; `check_cyclicity` proves
# every row at every n, and the next budget change deletes this.
CYCLICITY_EXHAUSTIVE_MAX_N = 6

OUT_ENV = "KASAMILAB_OUT"


class UsageError(ValueError):
    """Bad flags or an out-of-budget direct request."""


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named cross-check."""

    name: str
    status: str
    detail: str
    notes: tuple = ()


@dataclass(frozen=True)
class VerificationReport:
    """Deterministic run summary; serializes identically across reruns."""

    command: str
    n: int
    k: int
    modulus: int
    case: str
    d: int
    d_prime: int
    records: tuple

    @property
    def exit_code(self):
        statuses = {r.status for r in self.records}
        if MISMATCH in statuses or ERROR in statuses:
            return 2
        if FLAGGED in statuses:
            return 3
        return 0

    def to_json_dict(self):
        return {**asdict(self), "modulus": f"{self.modulus:#x}",
                "exit_code": self.exit_code}


@dataclass(frozen=True)
class Check:
    """One named cross-check of the registry, and the only kind there is;
    _comparison builds those that compare a measured distribution with its
    prediction.

    run(run) returns the record's detail, or (detail, notes) when notes flag
    errata, and raises VerificationError, with the mismatch as its message,
    when the check fails; _Run._record alone turns that into a status.
    budget_key names its cap in DEFAULT_BUDGETS, or is None for a check that
    always runs. not_applicable(params), when given, says why the check does
    not apply to these parameters, or returns None.
    """

    name: str
    budget_key: str | None
    run: Callable
    not_applicable: Callable | None = None


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _resolve_outdir(arg):
    path = Path(arg or os.environ.get(OUT_ENV) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise UsageError(
            f"output directory {path} is, or lies under, a file") from exc
    return path


def _compare(brute, formula):
    """(detail, notes) when brute equals formula value for value, the notes
    marking errata; otherwise raises VerificationError naming the first six
    values that differ, with the same notes."""
    delta = brute.diff(formula)
    if delta:
        shown = "; ".join(f"value {v}: measured {a}, tabulated {b}"
                          for v, a, b in delta[:6])
        if len(delta) > 6:
            shown += f"; +{len(delta) - 6} more"
        raise VerificationError(shown, formula.notes)
    return f"{len(brute.entries)} values, total {brute.total}", formula.notes


def _print_dist(title, dist):
    print(f"== {title} ==")
    width = max((len(str(v)) for v, _ in dist.entries), default=1)
    for v, c in dist.entries:
        print(f"  {v:>{width}}  {c}")
    print(f"  total {dist.total}")
    for note in dist.notes:
        print(f"  note: {note}")


def _over_budget(args, check):
    """The cap of check's budget when args.n exceeds it, else None."""
    if check.budget_key is None or args.budget_override:
        return None
    cap = DEFAULT_BUDGETS[check.budget_key]
    return cap if args.n > cap else None


class _Run:
    """One command: its field, parameters, flags and the sweeps checks share.

    `verify` skips a check that is over budget and writes only report.json;
    the other subcommands refuse one with a UsageError and also write each
    comparison's artifacts.
    """

    def __init__(self, args, command):
        if args.workers < 1:
            raise UsageError(
                f"--workers must be at least 1, got {args.workers}")
        self.args = args
        self.command = command
        self.params = derive_params(args.n, args.k)
        modulus = int(args.modulus, 0) if args.modulus else None
        self.ctx = build_field(args.n, modulus)
        self.outdir = None
        self._shared_s = 0.0

    # Sweeps that more than one check reads, done once per run. A sweep that
    # raises is not cached, so each check that reads it reports the failure.
    @cached_property
    def t_distribution(self):
        return self._shared("t_distribution", t_spectrum)

    @cached_property
    def s_distribution(self):
        return self._shared("s_distribution", s_spectrum)

    @cached_property
    def kernel_dims(self):
        return self._shared("kernel_dims", kernel_dims)

    @cached_property
    def family(self):
        return self._shared("family", build_family)

    @cached_property
    def correlation(self):
        family = self.family  # built, and timed, before this sweep's timer
        return self._shared("correlation", correlation_distribution, family,
                            self.args.workers)

    def _shared(self, name, sweep, *args):
        """sweep(*args or (ctx, params)), timed on a [time] line of its own;
        _record leaves that time out of the check that reads it first."""
        start = time.perf_counter()
        result = sweep(*(args or (self.ctx, self.params)))
        self._shared_s += (elapsed := time.perf_counter() - start)
        print(f"[time] shared sweep {name}: {elapsed:.3f}s", file=sys.stderr)
        return result

    def execute(self, names):
        """Run the named checks; write, print and grade the report."""
        checks = [_REGISTRY[name] for name in names]
        if self.command != "verify":
            for check in checks:
                cap = _over_budget(self.args, check)
                if cap is not None:
                    raise UsageError(
                        f"{check.name} at n={self.args.n} "
                        f"exceeds the default budget (n <= {cap}); "
                        f"pass --budget-override to run it anyway")
        self.outdir = _resolve_outdir(self.args.out)
        records = tuple(self._record(check) for check in checks)
        params = self.params
        report = VerificationReport(
            command=self.command, n=params.n, k=params.k,
            modulus=self.ctx.modulus, case=params.case, d=params.d,
            d_prime=params.d_prime, records=records)
        (self.outdir / "report.json").write_text(
            _dumps(report.to_json_dict()))
        for rec in records:
            print(f"{rec.name}: {rec.status} ({rec.detail})")
            for note in rec.notes:
                print(f"  note: {note}")
        return report.exit_code

    def _record(self, check):
        """The check's record; the one place that sets a status."""
        why = check.not_applicable and check.not_applicable(self.params)
        cap = _over_budget(self.args, check)
        if not why and cap is not None:
            why = f"n={self.params.n} exceeds budget {cap}"
        if why:
            print(f"[skip] {check.name}: {why}", file=sys.stderr)
            return CheckRecord(check.name, SKIPPED, why)
        start, shared = time.perf_counter(), self._shared_s
        try:
            result = check.run(self)
            detail, notes = ((result, ()) if isinstance(result, str)
                             else result)
            record = CheckRecord(check.name, FLAGGED if notes else MATCH,
                                 detail, notes)
        except VerificationError as exc:
            record = CheckRecord(check.name, MISMATCH, str(exc), exc.notes)
        except Exception as exc:  # one broken check must not lose the report
            traceback.print_exc()
            record = CheckRecord(check.name, ERROR,
                                 f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start - (self._shared_s - shared)
        print(f"[time] {check.name}: {elapsed:.3f}s", file=sys.stderr)
        return record


def _comparison(name, budget_key, stem, title, measure, predict,
                predicted_as="closed form"):
    """A Check comparing measure(run) with predict(params) value for value.

    Subcommands other than verify also write both sides as artifacts named
    after `stem`, and print them under `title` with --format table.
    """
    def compare(run):
        brute, formula = measure(run), predict(run.params)
        if run.command != "verify":
            outdir, fmt = run.outdir, run.args.format
            if fmt == "json":
                doc = {
                    "brute": brute.to_json_dict(),
                    "formula": formula.to_json_dict(),
                    "diff": [{"v": v, "brute": a, "formula": b}
                             for v, a, b in brute.diff(formula)],
                    "notes": list(formula.notes),
                }
                (outdir / f"{stem}.json").write_text(_dumps(doc))
            elif fmt == "csv":
                (outdir / f"{stem}.csv").write_text(brute.to_csv())
                (outdir / f"{stem}_formula.csv").write_text(formula.to_csv())
                delta = brute.diff(formula)
                if delta:
                    lines = ["value,brute,formula"]
                    lines += [f"{v},{a},{b}" for v, a, b in delta]
                    (outdir / f"{stem}_diff.csv").write_text(
                        "\n".join(lines) + "\n")
            else:
                _print_dist(f"{title} (brute force)", brute)
                _print_dist(f"{title} ({predicted_as})", formula)
        return _compare(brute, formula)
    return Check(name, budget_key, compare)


def _check_parameters(run):
    params = run.params
    return (f"case={params.case}, d={params.d}, d'={params.d_prime}, "
            f"s={params.s}, modulus={run.ctx.modulus:#x}")


def _check_bluher(run):
    n = run.params.n
    pairs = [(h, bluher_counts(run.ctx, h), bluher_counts_formula(n, h))
             for h in range(1, n)]
    bad = [f"h={h}: counted {got}, predicted {want}"
           for h, got, want in pairs if got != want]
    if bad:
        raise VerificationError("; ".join(bad))
    return f"root-count quadruples match for h=1..{n - 1}"


def _check_rank(run):
    got = rank_profile(run.kernel_dims, run.params)
    want = rank_profile_formula(run.params)
    if got != want:
        raise VerificationError(f"counted {got}, predicted {want}")
    return f"(n0, n2, n4) = {got}"


def _check_moments(run):
    m1, m2, m3 = moments(run.t_distribution, run.params)
    return f"m1={m1}, m2={m2}, m3={m3}"


def _check_gamma(run):
    gamma_sweep(run.ctx, run.params, run.kernel_dims)
    return f"all {8 ** run.params.m - 1} pairs follow the rank law"


def _check_artin_schreier(run):
    artin_schreier_sweep(run.ctx, run.params)
    return (f"point counts match the sum identity on all "
            f"{run.ctx.q ** 2 - 1} curves")


def _check_minimal_polynomials(run):
    ctx, params = run.ctx, run.params
    h1, h2, h3 = h_polynomials(ctx, params)
    bad = []
    for label, poly, want_deg in (("h1", h1, params.n), ("h2", h2, params.n),
                                  ("h3", h3, params.m)):
        degree = poly.bit_length() - 1
        if degree != want_deg:
            bad.append(f"{label} has degree {degree}, expected {want_deg}")
        if not is_irreducible(poly, degree):
            bad.append(f"{label} is reducible")
        if _gf2_polymod((1 << ctx.order) | 1, poly):
            bad.append(f"{label} does not divide x^{ctx.order} + 1")
    for code in CODES:
        mask = parity_check_mask(ctx, params, code)
        if mask.bit_length() - 1 != code_dimension(params, code):
            bad.append(f"{code} parity-check degree "
                       f"{mask.bit_length() - 1} != dimension "
                       f"{code_dimension(params, code)}")
    if bad:
        raise VerificationError("; ".join(bad))
    alpha = subfield_elements(ctx, params.m)[1]
    check_parity(ctx, params, "c1", codeword_c1(ctx, params, alpha, 1))
    check_parity(ctx, params, "c2", codeword_c2(ctx, params, alpha, 1, 1))
    return (f"h1={h1:#x}, h2={h2:#x}, h3={h3:#x}; "
            f"degrees ({params.n}, {params.n}, {params.m})")


def _check_cyclicity(run):
    for code in CODES:
        check_cyclicity(run.ctx, run.params, code)
    how = ("exhaustive" if run.params.n <= CYCLICITY_EXHAUSTIVE_MAX_N
           else "sampled")
    return f"shift closure holds for c1 and c2 ({how})"


def _check_family(run):
    """The family's size and, at n <= INEQUIVALENCE_MAX_N, its verdict: the
    correlation L = 2^n - 1 occurs |F| times (each member against itself at
    shift 0) iff all have full period and none is a rotation of another."""
    size = run.family.size
    if run.params.n > INEQUIVALENCE_MAX_N:
        return (f"size={size} (rotation-distinctness check needs "
                f"n <= {INEQUIVALENCE_MAX_N})")
    if run.correlation.count(run.params.q - 1) != size:
        raise VerificationError(
            "members are not full-period rotation-distinct")
    return f"size={size}; members full-period and pairwise rotation-distinct"


# In verify order. The lambdas look module functions up when they run, so a
# function replaced in this module's namespace is the one called.
_CHECKS = (
    Check("parameters", None, _check_parameters),
    Check("bluher-counts", "bluher", _check_bluher),
    Check("rank-profile", "rank_profile", _check_rank),
    Check("moments", "t_spectrum", _check_moments),
    _comparison("t-spectrum", "t_spectrum", "t_spectrum", "T spectrum",
                lambda run: run.t_distribution,
                lambda params: t_spectrum_formula(params)),
    _comparison("s-spectrum", "s_spectrum", "s_spectrum", "S spectrum",
                lambda run: run.s_distribution,
                lambda params: s_spectrum_formula(params)),
    Check("gamma-sweep", "gamma_sweep", _check_gamma),
    Check("artin-schreier", "artin_schreier", _check_artin_schreier,
          lambda params: None if params.d_prime == 2 * params.d else
          "point-count identity applies to the d' = 2d case only"),
    Check("minimal-polynomials", None, _check_minimal_polynomials),
    *(_comparison(f"code-weights-{code}", "code_weights", f"{code}_weights",
                  f"{code} weight distribution",
                  lambda run, code=code: weight_distribution(
                      run.t_distribution if code == "c1"
                      else run.s_distribution, run.params, code),
                  lambda params, code=code: weight_distribution_formula(
                      params, code))
      for code in CODES),
    Check("cyclicity", "code_weights", _check_cyclicity),
    Check("family", "correlation", _check_family),
    _comparison("correlation", "correlation", "correlation",
                "correlation distribution", lambda run: run.correlation,
                lambda params: correlation_distribution_formula(params),
                predicted_as="composed"),
)
_REGISTRY = {check.name: check for check in _CHECKS}


def cmd_spectrum(args):
    names = {"t": ["t-spectrum"], "s": ["s-spectrum"],
             "both": ["t-spectrum", "s-spectrum"]}[args.only]
    return _Run(args, "spectrum").execute(names)


def cmd_code_weights(args):
    codes = CODES if args.code == "both" else (args.code,)
    run = _Run(args, "code-weights")
    if args.dump_words and run.params.n > 6:
        raise UsageError("codeword dumps are limited to n <= 6")
    exit_code = run.execute([f"code-weights-{code}" for code in codes])
    if args.dump_words:
        for code in codes:
            lines = codeword_dump_lines(run.ctx, run.params, code)
            (run.outdir / f"{code}_words.txt").write_text(
                "\n".join(lines) + "\n")
    return exit_code


def cmd_correlation(args):
    run = _Run(args, "correlation")
    exit_code = run.execute(["correlation"])
    if args.dump_family:
        lines = family_dump_lines(run.family)
        (run.outdir / "family.txt").write_text("\n".join(lines) + "\n")
    return exit_code


def cmd_verify(args):
    return _Run(args, "verify").execute([check.name for check in _CHECKS])


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kasamilab",
        description="Cross-check brute-force sweeps against closed-form "
                    "tables for binary sequence families, their cyclic "
                    "codes, and the underlying exponential sums.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True,
                        help="field extension degree (even, 4..24)")
    common.add_argument("--k", type=int, required=True,
                        help="quadratic-term exponent parameter, k != n/2")
    common.add_argument("--modulus", default=None,
                        help="primitive modulus mask, e.g. 0x13 "
                             "(default: lexicographically smallest)")
    common.add_argument("--format", choices=("json", "csv", "table"),
                        default="json", help="artifact format")
    common.add_argument("--out", default=None,
                        help=f"output directory (default: ${OUT_ENV} or cwd)")
    common.add_argument("--workers", type=int, default=1,
                        help="thread count for the correlation sweep (at "
                             "least 1; capped at the CPU count)")
    common.add_argument("--budget-override", action="store_true",
                        help="run sweeps beyond the default size budgets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="T/S exponential-sum distributions")
    p.add_argument("--only", choices=("t", "s", "both"), default="both")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("code-weights", parents=[common],
                       help="cyclic-code weight distributions")
    p.add_argument("--code", choices=("c1", "c2", "both"), default="both")
    p.add_argument("--dump-words", action="store_true",
                   help="write codewords as hex rows (n <= 6)")
    p.set_defaults(func=cmd_code_weights)

    p = sub.add_parser("correlation", parents=[common],
                       help="sequence-family correlation distribution")
    p.add_argument("--dump-family", action="store_true",
                   help="write the family as label,hex rows")
    p.set_defaults(func=cmd_correlation)

    p = sub.add_parser("verify", parents=[common],
                       help="full cross-check battery")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

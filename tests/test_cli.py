"""Command-line interface: exit codes, artifacts, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kasamilab import (ValueDistribution, VerificationError,
                       artin_schreier_points, bluher_counts_formula,
                       build_field, check_parity, cli, derive_params, expsum,
                       linearized, rank_profile_formula, t_spectrum_formula)
from kasamilab.cli import _CHECKS, DEFAULT_BUDGETS, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "expected"


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return code, report, out


def statuses(report):
    return {r["name"]: r["status"] for r in report["records"]}


def test_spectrum_match(tmp_path):
    code, report, out = run(tmp_path, "spectrum", "--n", "4", "--k", "1")
    assert code == 0 and report["exit_code"] == 0
    assert report["modulus"] == "0x13" and report["case"] == "EvenM"
    assert statuses(report) == {"t-spectrum": "match", "s-spectrum": "match"}
    t = json.loads((out / "t_spectrum.json").read_text())
    assert t["brute"] == t["formula"]
    assert t["brute"]["values"] == [{"v": -8, "count": 5}, {"v": -4, "count": 3},
                                    {"v": 0, "count": 30}, {"v": 4, "count": 25},
                                    {"v": 16, "count": 1}]
    assert t["diff"] == []
    assert (out / "s_spectrum.json").exists()


def test_spectrum_only_t(tmp_path):
    code, report, out = run(tmp_path, "spectrum", "--n", "6", "--k", "2",
                            "--only", "t")
    assert code == 0
    assert list(statuses(report)) == ["t-spectrum"]
    assert not (out / "s_spectrum.json").exists()


def test_spectrum_erratum_exit(tmp_path):
    # Two-regime tables carry the flagged all-zero-row misprint.
    code, report, _ = run(tmp_path, "spectrum", "--n", "6", "--k", "1")
    assert code == 3 and report["exit_code"] == 3
    assert statuses(report) == {"t-spectrum": "flagged-erratum",
                                "s-spectrum": "flagged-erratum"}
    notes = report["records"][0]["notes"]
    assert any("2^n" in note for note in notes)


def test_python_dash_m_runs_verify(tmp_path):
    # From a checkout, with only src/ on the path and no install.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "kasamilab", "verify", "--n", "4", "--k", "1",
         "--out", str(out)], cwd=tmp_path, env=env, capture_output=True,
        text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == 0
    assert statuses(report)["correlation"] == "match"


def test_usage_errors():
    assert main(["spectrum", "--n", "4", "--k", "2"]) == 1  # k = m
    assert main(["spectrum", "--n", "3", "--k", "1"]) == 1  # odd n
    assert main(["code-weights", "--n", "3", "--k", "1"]) == 1


def test_workers_below_one_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--n", "4", "--k", "1", "--workers", "0",
                 "--out", str(out)]) == 1
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_out_naming_a_file_is_a_usage_error(tmp_path, below):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / below
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "kasamilab", "spectrum", "--n", "4", "--k", "1",
         "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == (f"error: output directory {out} is, or lies "
                           f"under, a file\n")
    assert taken.read_text() == "kept\n"


def test_budget_guard(capsys):
    assert main(["correlation", "--n", "10", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert "--budget-override" in err
    assert ("correlation at n=10 exceeds the default budget (n <= 8)"
            in err)
    assert DEFAULT_BUDGETS["correlation"] == 8


def test_code_weights(tmp_path):
    code, report, out = run(tmp_path, "code-weights", "--n", "4", "--k", "1")
    assert code == 0
    assert statuses(report) == {"code-weights-c1": "match",
                                "code-weights-c2": "match"}
    c1 = json.loads((out / "c1_weights.json").read_text())
    assert c1["brute"]["values"] == [{"v": 0, "count": 1}, {"v": 6, "count": 25},
                                     {"v": 8, "count": 30}, {"v": 10, "count": 3},
                                     {"v": 12, "count": 5}]


def test_code_weights_csv_and_dump(tmp_path):
    code, _, out = run(tmp_path, "code-weights", "--n", "4", "--k", "1",
                       "--format", "csv", "--dump-words")
    assert code == 0
    assert (out / "c1_weights.csv").read_text().splitlines()[:2] == \
        ["value,count", "0,1"]
    assert (out / "c1_weights_formula.csv").exists()
    words = (out / "c2_words.txt").read_text().splitlines()
    assert len(words) == 1024 and words[0] == "0000"


def test_dump_words_guarded(tmp_path):
    assert main(["code-weights", "--n", "8", "--k", "2", "--dump-words",
                 "--out", str(tmp_path / "x")]) == 1


def test_correlation_artifacts(tmp_path):
    code, report, out = run(tmp_path, "correlation", "--n", "4", "--k", "1",
                            "--dump-family")
    assert code == 0
    hist = json.loads((out / "correlation.json").read_text())
    assert hist["brute"]["total"] == 67335
    assert hist["brute"] == hist["formula"]
    fam = (out / "family.txt").read_text().splitlines()
    assert len(fam) == 67 and fam[0].startswith("F1(0,0),")


def test_correlation_erratum_notes(tmp_path):
    code, report, out = run(tmp_path, "correlation", "--n", "6", "--k", "1")
    assert code == 3
    assert statuses(report) == {"correlation": "flagged-erratum"}
    notes = report["records"][0]["notes"]
    assert len(notes) == 5 and "offset applied" in notes[0]


def test_out_dir_env(tmp_path, monkeypatch):
    target = tmp_path / "envdir"
    monkeypatch.setenv("KASAMILAB_OUT", str(target))
    assert main(["spectrum", "--n", "4", "--k", "1"]) == 0
    assert (target / "report.json").exists()
    assert (target / "t_spectrum.json").exists()


def test_explicit_modulus(tmp_path):
    code, report, _ = run(tmp_path, "spectrum", "--n", "4", "--k", "1",
                          "--modulus", "0x19")
    assert code == 0 and report["modulus"] == "0x19"
    # Non-primitive modulus is a usage error.
    assert main(["spectrum", "--n", "4", "--k", "1", "--modulus", "0x1f",
                 "--out", str(tmp_path / "y")]) == 1


@pytest.mark.parametrize("args, message", [
    (["spectrum", "--n", "4", "--k", "1", "--modulus=-0x13"],
     "modulus -0x13 is negative"),
    (["verify", "--n", "6", "--k", "1", "--modulus", "0x13"],
     "modulus 0x13 has degree 4, not 6"),
])
def test_modulus_of_the_wrong_shape(tmp_path, capsys, args, message):
    # A negative mask never reduces in the irreducibility test, and 0x13
    # (x^4 + x + 1) is irreducible: what is wrong with it is its degree.
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_deterministic_across_workers(tmp_path):
    blobs = []
    for i, w in enumerate(("1", "3")):
        out = tmp_path / f"w{i}"
        assert main(["correlation", "--n", "6", "--k", "2", "--workers", w,
                     "--out", str(out)]) == 0
        blobs.append(((out / "report.json").read_bytes(),
                      (out / "correlation.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_verify_small_fast(tmp_path):
    t0 = time.perf_counter()
    code, report, _ = run(tmp_path, "verify", "--n", "4", "--k", "1")
    elapsed = time.perf_counter() - t0
    assert code == 0 and elapsed < 5.0
    st = statuses(report)
    assert set(st.values()) <= {"match", "skipped"}
    for name in ("parameters", "bluher-counts", "rank-profile", "moments",
                 "t-spectrum", "s-spectrum", "gamma-sweep",
                 "minimal-polynomials", "code-weights-c1", "code-weights-c2",
                 "cyclicity", "family", "correlation"):
        assert st[name] == "match"
    assert st["artin-schreier"] == "skipped"  # identity needs d' = 2d


def test_verify_erratum_only(tmp_path, workers="1"):
    code, report, out = run(tmp_path, "verify", "--n", "6", "--k", "1",
                            "--workers", workers)
    assert code == 3
    st = statuses(report)
    assert st["artin-schreier"] == "match"
    assert st["correlation"] == "flagged-erratum"
    assert st["t-spectrum"] == "flagged-erratum"
    assert "mismatch" not in set(st.values())
    assert (out / "report.json").read_bytes() == \
        (GOLDEN / "n6k1.json").read_bytes()


def test_verify_erratum_only_on_two_threads(tmp_path):
    # The one frozen report in which artin-schreier runs, with the
    # correlation sweep, the only threaded one, on two threads.
    test_verify_erratum_only(tmp_path, workers="2")


@pytest.mark.parametrize("n,k,code", [(6, 2, 0), (10, 1, 3), (10, 2, 0),
                                      (12, 1, 0)])
def test_verify_report_is_golden(tmp_path, n, k, code):
    # The frozen reports of the benchmark grid, (6,1) and (8,2) aside.
    got, _, out = run(tmp_path, "verify", "--n", str(n), "--k", str(k))
    assert got == code
    assert (out / "report.json").read_bytes() == \
        (GOLDEN / f"n{n}k{k}.json").read_bytes()


def record_calls(monkeypatch, sweep, key):
    """key(*args, **kwargs) of every call of sweep, through whichever
    kasamilab module it is called from."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return sweep(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("kasamilab"):
            for attr, value in list(vars(module).items()):
                if value is sweep:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_verify_sweeps_each_kernel_once(tmp_path, monkeypatch):
    # rank-profile and gamma-sweep read one kernel table: the validator runs
    # once per block of beta representatives (one per alpha at n = 6), on
    # alpha = 0 and then alpha = 1.
    calls = record_calls(monkeypatch, linearized._kernel_dims,
                         lambda *args: args[2])
    code, report, _ = run(tmp_path, "verify", "--n", "6", "--k", "1")
    assert code == 3
    assert statuses(report)["gamma-sweep"] == "match"
    assert calls == [0, 1]


@pytest.mark.parametrize("args,want", [
    (("verify",), [False, True]),
    (("code-weights", "--code", "c1"), [False]),
    (("code-weights", "--code", "both"), [False, True]),
], ids=["verify", "c1", "both"])
def test_each_popcount_histogram_is_swept_once(tmp_path, monkeypatch, args,
                                               want):
    # The popcount sweep makes two histograms, T and S (linear); the code
    # weights are read off them, so no command sweeps either one twice.
    calls = record_calls(monkeypatch, expsum._popcount_sweep,
                         lambda ctx, params, linear=False: linear)
    code, report, _ = run(tmp_path, *args, "--n", "6", "--k", "1")
    assert code == 3 and "mismatch" not in statuses(report).values()
    assert calls == want


def test_shared_sweeps_are_timed_on_their_own_lines(tmp_path, monkeypatch,
                                                    capsys):
    # A T or S sweep made 0.3 s slower is charged to its own [time] line,
    # not to the checks that read it: moments, the first to read T, and
    # t-spectrum; s-spectrum, the first to read S, and code-weights-c2.
    for name in ("t_spectrum", "s_spectrum"):
        def slow(ctx, params, sweep=getattr(cli, name)):
            time.sleep(0.3)
            return sweep(ctx, params)

        monkeypatch.setattr(cli, name, slow)
    code, _, _ = run(tmp_path, "verify", "--n", "4", "--k", "1")
    err = capsys.readouterr().err
    checks = dict(re.findall(r"\[time\] (\S+): ([\d.]+)s", err))
    shared = dict(re.findall(r"\[time\] shared sweep (\S+): ([\d.]+)s", err))
    assert code == 0 and set(shared) == {"t_distribution", "s_distribution",
                                         "kernel_dims", "family",
                                         "correlation"}
    assert float(shared["t_distribution"]) >= 0.3
    assert float(shared["s_distribution"]) >= 0.3
    for check in ("moments", "t-spectrum", "s-spectrum", "code-weights-c1",
                  "code-weights-c2"):
        assert float(checks[check]) < 0.3, check


def test_correlation_timer_leaves_out_the_family_build(tmp_path, monkeypatch,
                                                       capsys):
    # The correlation subcommand reads the family only through the shared
    # correlation sweep, which builds it before that sweep's timer starts:
    # a build made 0.3 s slower shows on the family line alone.
    def slow(ctx, params, build=cli.build_family):
        time.sleep(0.3)
        return build(ctx, params)

    monkeypatch.setattr(cli, "build_family", slow)
    code, _, _ = run(tmp_path, "correlation", "--n", "4", "--k", "1")
    err = capsys.readouterr().err
    checks = dict(re.findall(r"\[time\] (\S+): (-?[\d.]+)s", err))
    shared = dict(re.findall(r"\[time\] shared sweep (\S+): ([\d.]+)s", err))
    assert code == 0 and set(shared) == {"family", "correlation"}
    assert float(shared["family"]) >= 0.3
    assert float(shared["correlation"]) < 0.3
    assert 0 <= float(checks["correlation"]) < 0.3


@pytest.mark.parametrize("n,k", [(4, 1), (4, 3), (6, 1), (6, 2), (6, 4),
                                 (6, 5)])
def test_verify_battery(tmp_path, n, k):
    # Every valid k, n - k kept as a symmetry check: a match or only
    # flagged errata, never a mismatch or an error.
    code, report, _ = run(tmp_path, "verify", "--n", str(n), "--k", str(k))
    assert code in (0, 3) and report["exit_code"] == code
    assert {"mismatch", "error"}.isdisjoint(statuses(report).values())


def test_verify_reports_a_check_that_raises(tmp_path, monkeypatch):
    def broken(kernel):
        raise RuntimeError("rank sweep broke")

    monkeypatch.setattr("kasamilab.cli.rank_profile", broken)
    code, report, _ = run(tmp_path, "verify", "--n", "4", "--k", "1")
    assert code == 2 and report["exit_code"] == 2
    names = [r["name"] for r in report["records"]]
    rank = report["records"][names.index("rank-profile")]
    assert rank["status"] == "error"
    assert "RuntimeError" in rank["detail"]
    later = {r["name"]: r["status"]
             for r in report["records"][names.index("rank-profile") + 1:]}
    assert list(later) == ["moments", "t-spectrum", "s-spectrum",
                           "gamma-sweep", "artin-schreier",
                           "minimal-polynomials", "code-weights-c1",
                           "code-weights-c2", "cyclicity", "family",
                           "correlation"]
    assert set(later.values()) == {"match", "skipped"}


def _one_more(counts, i):
    """A copy of a tuple of counts with one more at index `i`."""
    return counts[:i] + (counts[i] + 1,) + counts[i + 1:]


def _bluher_one_more(l, h):
    counts = bluher_counts_formula(l, h)
    return _one_more(counts, 0) if h == 2 else counts


def _t_one_moved(params):
    # One count moved from -8 to 16; the erratum notes are kept.
    table = t_spectrum_formula(params)
    counts = table.as_dict()
    counts[-8] -= 1
    counts[16] += 1
    return ValueDistribution.from_counts(counts, notes=table.notes)


def _one_point_more(ctx, params, alpha_prime, betas):
    # a' = 3 is pi^6, and beta = 5 a representative of alpha = 1.
    counts = artin_schreier_points(ctx, params, alpha_prime, betas)
    if alpha_prime == 0x3:
        counts[betas == 0x5] += 1
    return counts


def _c2_word_flipped(ctx, params, code, word):
    # One bit flipped leaves the code: its minimum distance exceeds 1.
    if code == "c2":
        word = word.copy()
        word[3] ^= 1
    check_parity(ctx, params, code, word)


def _power_law_broken(ctx, params, code):
    raise VerificationError(
        "the x^3 table breaks x -> pi x: P[pi x] is not pi^3 P[x]")


def _mismatch_cases():
    """(check, patched name, replacement, detail, notes) at (6,1)."""
    p = derive_params(6, 1)
    bluher = bluher_counts_formula(6, 2)
    trip = rank_profile_formula(p)
    points = artin_schreier_points(build_field(6), p, 0x3, 0x5)
    cases = [
        ("bluher-counts", "kasamilab.cli.bluher_counts_formula",
         _bluher_one_more,
         f"h=2: counted {bluher}, predicted {(bluher[0] + 1, *bluher[1:])}",
         []),
        ("rank-profile", "kasamilab.cli.rank_profile_formula",
         lambda params: _one_more(rank_profile_formula(params), 1),
         f"counted {trip}, predicted {(trip[0], trip[1] + 1, trip[2])}", []),
        ("t-spectrum", "kasamilab.cli.t_spectrum_formula", _t_one_moved,
         "value -8: measured 280, tabulated 279; "
         "value 16: measured 210, tabulated 211",
         list(t_spectrum_formula(p).notes)),
        ("artin-schreier", "kasamilab.expsum.artin_schreier_points",
         _one_point_more,
         f"(0x3, 0x5): {points + 1} points, identity gives {points}", []),
        ("minimal-polynomials", "kasamilab.cli.is_irreducible",
         lambda mask, degree: False,
         "h1 is reducible; h2 is reducible; h3 is reducible", []),
        ("cyclicity", "kasamilab.cli.check_cyclicity", _power_law_broken,
         "the x^3 table breaks x -> pi x: P[pi x] is not pi^3 P[x]", []),
    ]
    parity = pytest.param(
        "minimal-polynomials", "kasamilab.cli.check_parity", _c2_word_flipped,
        "a c2 word fails its parity-check product", [],
        id="minimal-polynomials-parity")
    return [pytest.param(*case, id=case[0]) for case in cases] + [parity]


@pytest.mark.parametrize("name,target,patched,detail,notes",
                         _mismatch_cases())
def test_verify_keeps_each_mismatch_detail(tmp_path, monkeypatch, name,
                                           target, patched, detail, notes):
    # One side of one check moved: that record alone is a mismatch, with the
    # offender named and any erratum notes of the prediction kept.
    monkeypatch.setattr(target, patched)
    code, report, _ = run(tmp_path, "verify", "--n", "6", "--k", "1")
    record = next(r for r in report["records"] if r["name"] == name)
    assert code == 2 and report["exit_code"] == 2
    assert (record["status"], record["detail"], record["notes"]) == \
        ("mismatch", detail, notes)
    assert [r["name"] for r in report["records"]
            if r["status"] == "mismatch"] == [name]


@pytest.mark.slow
def test_verify_n8(tmp_path):
    code, report, out = run(tmp_path, "verify", "--n", "8", "--k", "2")
    assert code == 3
    assert (out / "report.json").read_bytes() == \
        (GOLDEN / "n8k2.json").read_bytes()
    st = statuses(report)
    assert st["correlation"] == "flagged-erratum"
    assert st["gamma-sweep"] == "skipped"
    assert st["rank-profile"] == "match"
    corr = next(r for r in report["records"] if r["name"] == "correlation")
    assert any("vanishes only at d = 1" in note for note in corr["notes"])
    assert "mismatch" not in set(st.values())


def test_every_budget_caps_a_registered_check():
    keys = {check.budget_key for check in _CHECKS} - {None}
    assert keys == set(DEFAULT_BUDGETS)

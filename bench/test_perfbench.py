"""Tests of the benchmark's own rules: span self time, the report
comparison, the verified-work totals and the seed's choice of modulus."""

import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kasamilab.codes as codes  # noqa: E402
from kasamilab import build_field, derive_params  # noqa: E402

import layers  # noqa: E402
import reports  # noqa: E402
import tracer  # noqa: E402


def test_nested_spans_self_time():
    ctx, params = build_field(4), derive_params(4, 1)
    original = codes.codeword_c2
    functions = {"codes.codeword_c1": codes.codeword_c1,
                 "codes.codeword_c2": codes.codeword_c2}
    with tracer.installed(tracer.Tracer(), layers.modules(),
                          functions) as t:
        codes.codeword_c2(ctx, params, 1, 1, 1)
    assert codes.codeword_c2 is original
    outer, inner = sorted(t.spans, key=lambda s: s.start)
    assert (outer.name, inner.name) == ("codes.codeword_c2",
                                        "codes.codeword_c1")
    assert inner.parent is outer and outer.parent is None
    index = tracer.by_name(t.spans)
    own = tracer.self_s(t.spans, index, ["codes.codeword_c2"])
    assert own * 1e9 == (outer.end - outer.start) - (inner.end - inner.start)
    assert tracer.self_s(t.spans, index, ["codes.codeword_c1"]) == (
        (inner.end - inner.start) / 1e9)
    assert tracer.calls(index, ["codes.codeword_c1",
                                "codes.codeword_c2"]) == 2


def _span(name, parent, start, end):
    span = tracer.Span(name, parent, start)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_overlapping_children():
    # Two pool threads run children that overlap in time; the covered part
    # of the parent counts once, and a grandchild changes nothing.
    parent = _span("a", None, 0, 100)
    c1 = _span("b", parent, 10, 50)
    c2 = _span("b", parent, 30, 70)
    grandchild = _span("c", c1, 20, 40)
    spans = [parent, c1, c2, grandchild]
    index = tracer.by_name(spans)
    assert tracer.self_s(spans, index, ["a"]) == 40 / 1e9
    assert tracer.busy_s(index, ["b"]) == 60 / 1e9
    assert tracer.busy_s(index, ["b", "c"]) == 60 / 1e9


def test_pool_thread_spans_attach_to_the_open_span():
    t = tracer.Tracer()
    leaf = t.wrap("leaf", lambda: None)

    def fan_out():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    t.wrap("root", fan_out)()
    root, child = sorted(t.spans, key=lambda s: s.start)
    assert child.parent is root


EXPECTED = reports.expected_report(6, 2)


def _edit(change):
    doc = json.loads(EXPECTED)
    change(doc, {r["name"]: r for r in doc["records"]})
    return reports._dumps(doc).encode()


def _set(record, **fields):
    return lambda doc, recs: recs[record].update(fields)


def test_report_identical_passes():
    assert reports.compare_reports(EXPECTED, EXPECTED) == []


def test_skipped_record_may_run_and_pass():
    for status in ("match", "flagged-erratum"):
        actual = _edit(_set("artin-schreier", status=status,
                            detail="ran", notes=["n"]))
        assert reports.compare_reports(EXPECTED, actual) == []
    actual = _edit(_set("artin-schreier", status="mismatch"))
    assert reports.compare_reports(EXPECTED, actual)


def test_status_notes_and_exit_code_changes_fail():
    for change in (_set("cyclicity", status="skipped"),
                   _set("correlation", status="flagged-erratum"),
                   _set("t-spectrum", notes=["new note"]),
                   lambda doc, recs: doc.update(exit_code=3)):
        actual = _edit(change)
        assert reports.compare_reports(EXPECTED, actual)
        assert reports.compare_reports(EXPECTED, actual, modulus=0x43)


def test_details_must_match_only_with_the_default_modulus():
    actual = _edit(_set("parameters", detail="other"))
    assert reports.compare_reports(EXPECTED, actual)
    actual = _edit(lambda doc, recs: (doc.update(modulus="0x6d"),
                                      recs["parameters"].update(detail="x")))
    assert reports.compare_reports(EXPECTED, actual, modulus=0x6d) == []
    assert reports.compare_reports(EXPECTED, actual, modulus=0x73)


def test_default_modulus_needs_identical_bytes():
    assert reports.compare_reports(EXPECTED, EXPECTED.replace(b"  ", b" "))


def test_verified_total_by_hand_at_6_1():
    # m = 3, q = 64, BothOdd: the family has 2^9 = 512 members, L = 63.
    by_hand = (5 * 63           # Bluher: h = 1..5, b != 0
               + 511            # rank pairs
               + 512 + 512      # T pairs, for moments and t-spectrum
               + 512 * 64       # S triples
               + 511 * 64       # gamma-sweep pairs x q
               + 64 * 64 - 1    # Artin-Schreier curves
               + 512 + 32768    # codewords of C1 and C2
               + 512 + 32768    # cyclicity, every codeword
               + 512 * 512 * 63)  # correlation triples
    report = json.loads(reports.expected_report(6, 1))
    assert reports.verified_total(6, 1, report) == by_hand == 16653049
    assert reports.checks_run(report) == 14


def test_seed_chooses_a_primitive_modulus():
    # phi(2^n - 1) / n primitive polynomials of degree n.
    assert [len(reports.primitive_moduli(n)) for n in (4, 6, 8)] == [2, 6, 16]
    assert reports.primitive_moduli(6)[0] == 0x43
    assert reports.choose_modulus(8, 0) is None
    assert reports.choose_modulus(8, 5) == reports.choose_modulus(8, 5)
    assert reports.choose_modulus(8, 5) in reports.primitive_moduli(8)


def test_benchmark_json_lists_what_run_prints():
    import run
    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [m[:3] for m in layers.PER_LAYER] + run.TRACE_METRICS

"""ValueDistribution container semantics."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from kasamilab import ValueDistribution, pack_bits_hex


def test_from_counts_sorts_and_drops_zeros():
    dist = ValueDistribution.from_counts({5: 2, -3: 1, 0: 0})
    assert dist.entries == ((-3, 1), (5, 2))
    assert dist.total == 3
    assert dist.values == (-3, 5)
    assert dist.count(5) == 2 and dist.count(99) == 0


def test_notes_do_not_affect_equality():
    a = ValueDistribution.from_counts({1: 1})
    b = a.with_notes(["flagged"])
    assert a == b
    assert b.notes == ("flagged",)


def test_map_values_merges():
    dist = ValueDistribution.from_counts({-4: 3, 4: 5})
    assert dist.map_values(abs).as_dict() == {4: 8}


def test_diff():
    a = ValueDistribution.from_counts({1: 2, 3: 4})
    b = ValueDistribution.from_counts({1: 2, 3: 5, 7: 1})
    assert a.diff(b) == [(3, 4, 5), (7, 0, 1)]
    assert a.diff(a) == []


def test_json_and_csv_round_trip():
    dist = ValueDistribution.from_counts({2: 1, -2: 3})
    assert json.loads(json.dumps(dist.to_json_dict())) == {
        "values": [{"v": -2, "count": 3}, {"v": 2, "count": 1}], "total": 4}
    assert dist.to_csv() == "value,count\n-2,3\n2,1\n"


@given(st.dictionaries(st.integers(-100, 100), st.integers(1, 50), max_size=12))
@settings(max_examples=100)
def test_total_is_count_sum(counts):
    dist = ValueDistribution.from_counts(counts)
    assert dist.total == sum(counts.values())
    assert dist.as_dict() == counts


def test_pack_bits_hex():
    assert pack_bits_hex([1, 0, 1, 1]) == "0d"
    assert pack_bits_hex([0] * 15) == "0000"
    assert pack_bits_hex([1] + [0] * 14) == "0100"

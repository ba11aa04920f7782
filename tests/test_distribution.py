"""ValueDistribution container semantics."""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from kasamilab import ValueDistribution, pack_bits_hex
from kasamilab.distribution import _summed, _thread_count


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


def test_threads_capped_by_cpus_and_tasks(recording_pool):
    assert _summed(lambda x: x, range(10), 10 ** 6) == 45
    assert _summed(lambda x: x, range(3), 10 ** 6) == 3
    assert _summed(lambda x: x, range(10), 1) == 45  # no pool for one thread
    assert recording_pool == [(4, 10), (3, 3)]


def test_threads_capped_by_the_affinity_mask(recording_pool, monkeypatch):
    # Pinned to one of the four CPUs: one thread, and no pool.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert _thread_count(10 ** 6, 10) == 1
    assert _summed(lambda x: x, range(10), 10 ** 6) == 45
    assert recording_pool == []


def test_threads_capped_by_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _thread_count(10 ** 6, 10) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _thread_count(10 ** 6, 10) == 1

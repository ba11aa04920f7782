"""Integer value distributions and the error type shared across modules."""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np

__all__ = ["VerificationError", "ValueDistribution", "pack_bits_hex"]


def _pack_bits(bits):
    """Bytes of a 0/1 sequence, bit i of the word at byte i//8 bit i%8."""
    return np.packbits(bits, bitorder="little").tobytes()


def pack_bits_hex(bits):
    """Pack a 0/1 sequence into hex, bit i of the word at byte i//8 bit i%8."""
    return _pack_bits(bits).hex()


class VerificationError(Exception):
    """A measured quantity disagrees with its closed-form prediction; notes
    are the prediction's erratum flags, kept on the mismatch record."""

    def __init__(self, message, notes=()):
        super().__init__(message)
        self.notes = notes


def _exact(frac):
    """Fraction -> int, insisting on exact divisibility and non-negativity."""
    if frac.denominator != 1 or frac < 0:
        raise VerificationError(f"count expression is not a natural number: {frac}")
    return int(frac)


def _p2(e):
    """2^e as a Fraction, tolerating negative exponents."""
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def _histogram(values):
    """Counter of the entries of an integer array."""
    vals, cts = np.unique(values, return_counts=True)
    return Counter(dict(zip(vals.tolist(), cts.tolist())))


def _thread_count(workers, tasks):
    """Threads for `tasks` independent tasks: never more than the CPUs this
    process may run on (its affinity mask, where the platform has one)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(workers, cpus, tasks))


def _summed(work, items, workers):
    """Sum of work(item) over items, on at most _thread_count threads."""
    items = list(items)
    threads = _thread_count(workers, len(items))
    if threads == 1:
        return reduce(add, map(work, items))
    # Imported only here: it loads concurrent.futures and logging, which a
    # run that opens no pool need not pay for at start-up.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return reduce(add, pool.map(work, items))


@dataclass(frozen=True)
class ValueDistribution:
    """Multiset of integers, e.g. an exponential-sum spectrum or weight table.

    entries are (value, count) pairs sorted by value ascending, zero counts
    dropped. notes carry human-readable flags (e.g. reconciled misprints in a
    published table); they never participate in equality.
    """

    entries: tuple[tuple[int, int], ...]
    total: int
    notes: tuple[str, ...] = field(default=(), compare=False)

    @classmethod
    def from_counts(cls, counts, notes=()):
        items = tuple(sorted((int(v), int(c)) for v, c in dict(counts).items() if c))
        return cls(entries=items, total=sum(c for _, c in items), notes=tuple(notes))

    def as_dict(self):
        return dict(self.entries)

    def count(self, value):
        return self.as_dict().get(value, 0)

    @property
    def values(self):
        return tuple(v for v, _ in self.entries)

    def with_notes(self, notes):
        return ValueDistribution(self.entries, self.total, tuple(notes))

    def map_values(self, fn):
        """Pushforward under fn, merging counts that land on the same value."""
        out = Counter()
        for v, c in self.entries:
            out[fn(v)] += c
        return ValueDistribution.from_counts(out, notes=self.notes)

    def diff(self, other):
        """(value, count_self, count_other) for every value where they differ."""
        vals = sorted(set(self.as_dict()) | set(other.as_dict()))
        return [(v, self.count(v), other.count(v))
                for v in vals if self.count(v) != other.count(v)]

    def to_json_dict(self):
        return {"values": [{"v": v, "count": c} for v, c in self.entries],
                "total": self.total}

    def to_csv(self):
        return "\n".join(["value,count"] + [f"{v},{c}" for v, c in self.entries]) + "\n"

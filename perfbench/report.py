"""Pure computations behind perfbench/run.py.

Percentiles follow one rule: a percentile is reported with its sample
count, and it is *supported* only when at least MIN_BEYOND samples lie
beyond it.  A run's percentile is the median over its repetitions of
each repetition's percentile, so one disturbed repetition cannot move it.  Self time follows one rule too: a span's duration minus the
durations of its child spans.  `python3 perfbench/report.py` runs the
self-test of both.
"""

import csv
import io
import statistics
import sys
import unittest

MIN_BEYOND = 10

# Percentiles as exact fractions, so rank arithmetic never rounds.
P50 = (50, 100)
P90 = (90, 100)
P99 = (99, 100)
P999 = (999, 1000)


def percentile(samples, q):
    """Nearest-rank percentile q = (num, den) of `samples`.

    Returns (value, n, beyond): the value at rank ceil(q * n), the sample
    count, and how many samples lie beyond that rank.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    num, den = q
    rank = max(1, (num * n + den - 1) // den)
    return xs[rank - 1], n, n - rank


def supported(beyond):
    return beyond >= MIN_BEYOND


def repeated_percentile(repetitions, q):
    """Median over repetitions of each one's percentile q.

    Returns (value, n, beyond) with n and beyond the smallest of any
    repetition, so support is judged on the thinnest one.
    """
    each = [percentile(samples, q) for samples in repetitions]
    return (statistics.median(v for v, _, _ in each),
            min(n for _, n, _ in each), min(b for _, _, b in each))


def read_spans(path):
    """Spans as written by pfbench: dicts with int ids and times."""
    spans = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            spans.append({
                "id": int(row["id"]),
                "parent": int(row["parent"]),
                "request": int(row["request"]),
                "layer": row["layer"],
                "op": row["op"],
                "start_ns": int(row["start_ns"]),
                "end_ns": int(row["end_ns"]),
            })
    return spans


def self_times(spans):
    """Span id -> self time in ns: duration minus the child durations.

    Children measured in separate passes do not nest in time, so the
    subtraction is by durations rather than by covered interval.
    """
    child_ns = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] = (child_ns.get(s["parent"], 0) +
                                     s["end_ns"] - s["start_ns"])
    return {s["id"]: s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
            for s in spans}


def layer_table(spans):
    """(layer, op) -> {"count", "total_ns", "self_ns"}, summed over spans."""
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault((s["layer"], s["op"]),
                               {"count": 0, "total_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += s["end_ns"] - s["start_ns"]
        row["self_ns"] += own[s["id"]]
    return table


def mean_self_ns(table, layer, op, per):
    """Summed self time of (layer, op) divided by `per` (0 when per is 0)."""
    row = table.get((layer, op))
    return row["self_ns"] / per if row and per else 0.0


class SelfTest(unittest.TestCase):
    def test_percentile_ranks_and_support(self):
        xs = list(range(1, 1001))  # 1..1000
        self.assertEqual(percentile(xs, P50), (500, 1000, 500))
        value, n, beyond = percentile(xs, P99)
        self.assertEqual((value, n, beyond), (990, 1000, 10))
        self.assertTrue(supported(beyond))
        value, n, beyond = percentile(xs, P999)
        self.assertEqual((value, beyond), (999, 1))
        self.assertFalse(supported(beyond))
        _, _, beyond = percentile(list(range(10000)), P999)
        self.assertEqual(beyond, 10)
        self.assertTrue(supported(beyond))
        _, _, beyond = percentile(list(range(9999)), P999)
        self.assertFalse(supported(beyond))

    def test_repeated_percentile_is_the_median_repetition(self):
        calm = list(range(1, 1001))
        disturbed = [x * 100 for x in calm]
        value, n, beyond = repeated_percentile(
            [calm, disturbed, calm[::-1]], P99)
        self.assertEqual((value, n, beyond), (990, 1000, 10))
        _, n, beyond = repeated_percentile([calm, calm[:500]], P99)
        self.assertEqual((n, beyond), (500, 5))

    def test_percentile_ignores_input_order_and_small_n(self):
        self.assertEqual(percentile([3.0, 1.0, 2.0], P50), (2.0, 3, 1))
        self.assertEqual(percentile([7.0], P99), (7.0, 1, 0))
        with self.assertRaises(ValueError):
            percentile([], P50)

    def test_self_time_subtracts_child_durations(self):
        def span(i, parent, start, end, layer):
            return {"id": i, "parent": parent, "request": 1, "layer": layer,
                    "op": "access_many", "start_ns": start, "end_ns": end}
        spans = [
            span(0, -1, 0, 100, "client.recv"),
            span(1, 0, 1000, 1060, "server.session"),  # separate pass
            span(2, 1, 2000, 2010, "server.wire_decode"),
            span(3, 1, 3000, 3030, "engine.tenant"),
        ]
        own = self_times(spans)
        self.assertEqual(own, {0: 40, 1: 20, 2: 10, 3: 30})
        self.assertEqual(sum(own.values()), 100)  # adds up to the root
        table = layer_table(spans)
        self.assertEqual(table[("server.session", "access_many")],
                         {"count": 1, "total_ns": 60, "self_ns": 20})
        self.assertEqual(mean_self_ns(table, "engine.tenant",
                                      "access_many", 2), 15.0)
        self.assertEqual(mean_self_ns(table, "absent", "access_many", 2), 0.0)


def self_test(verbosity=1):
    """Runs SelfTest; True when every case passes.  Silent at verbosity 0."""
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(SelfTest)
    stream = io.StringIO() if verbosity == 0 else sys.stderr
    result = unittest.TextTestRunner(stream=stream,
                                     verbosity=verbosity).run(suite)
    return result.wasSuccessful()


if __name__ == "__main__":
    raise SystemExit(0 if self_test(verbosity=2) else 1)

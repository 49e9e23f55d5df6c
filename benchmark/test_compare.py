"""Verdicts of compare.py on synthetic results.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "images_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
    ],
}


def results(ips, latency, digest="00d1", model_us=2010.5, seed=1):
    runs = [{"metrics": {"images_per_s": {"value": v, "unit": "1/s"},
                         "latency_p50_ms": {"value": l, "unit": "ms"},
                         "model.us_per_image": {"value": model_us,
                                                "unit": "us"}},
             "digests": {"logits": digest}}
            for v, l in zip(ips, latency)]
    return {"seed": seed, "workloads": {"w": {"plain": runs}}}


class CompareTest(unittest.TestCase):
    def verdicts(self, a, b):
        rows, changes = compare.compare(a, b, SPEC)
        return {r["metric"]["name"]: r["verdict"] for r in rows}, changes

    def test_within_bound_is_ok(self):
        a = results([100, 101, 99], [80, 81, 79])
        b = results([96, 95, 97], [84, 85, 83])
        self.assertEqual(self.verdicts(a, b),
                         ({"images_per_s": "ok", "latency_p50_ms": "ok"},
                          []))

    def test_beyond_bound_regressed(self):
        a = results([100, 101, 99], [80, 81, 79])
        b = results([85, 86, 84], [95, 96, 94])
        verdicts, _ = self.verdicts(a, b)
        self.assertEqual(verdicts, {"images_per_s": "regressed",
                                    "latency_p50_ms": "regressed"})

    def test_wide_base_spread_is_unresolved(self):
        a = results([70, 100, 130], [80, 81, 79])
        b = results([99, 100, 98], [80, 81, 79])
        verdicts, _ = self.verdicts(a, b)
        self.assertEqual(verdicts["images_per_s"], "unresolved")
        self.assertEqual(verdicts["latency_p50_ms"], "ok")

    def test_digest_mismatch_is_a_behaviour_change(self):
        a = results([100, 101, 99], [80, 81, 79])
        b = results([100, 101, 99], [80, 81, 79], digest="00d2",
                    model_us=2010.75)
        verdicts, changes = self.verdicts(a, b)
        self.assertEqual(set(verdicts.values()), {"ok"})
        self.assertEqual(changes, [
            ("w", "digest.logits", "00d1", "00d2"),
            ("w", "model.us_per_image", 2010.5, 2010.75)])


if __name__ == "__main__":
    unittest.main()

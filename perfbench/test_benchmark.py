"""Checks BENCHMARK.json against the benchmark contract and the metric
names the binary reports (perfbench/src/report.rs).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def source_metrics(const):
    """(name, unit) pairs of a metric table in report.rs."""
    with open(os.path.join(HERE, "src", "report.rs"), encoding="utf-8") as f:
        text = f.read()
    block = re.search(r"pub const %s: &\[\(&str, &str\)\] = &\[(.*?)\];" % const, text, re.S)
    return re.findall(r'\("([^"]+)", "([^"]+)"\)', block.group(1))


class BenchmarkJsonSchema(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_top_level_keys(self):
        self.assertEqual(
            set(self.spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_command_and_paths(self):
        cmd, paths = self.spec["command"], self.spec["paths"]
        self.assertTrue(1 <= len(cmd) <= 32)
        self.assertTrue(all(isinstance(c, str) and len(c) <= 200 for c in cmd))
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        for c in cmd[1:]:
            self.assertFalse(c.startswith("/") or ".." in c.split("/"))
            if os.path.exists(os.path.join(ROOT, c)):
                self.assertTrue(any(c == p or c.startswith(p + "/") for p in paths), c)

    def test_run_seconds_fits_the_time_budget(self):
        secs = self.spec["run_seconds"]
        self.assertIsInstance(secs, int)
        self.assertTrue(1 <= secs <= 60)
        runs = 4 + 22 * len(self.spec["workloads"])
        # Each run adds set-up and process start to its measured seconds.
        self.assertLess(runs * (secs + 15) + 2 * 120, 3420)

    def test_workloads(self):
        ws = self.spec["workloads"]
        self.assertTrue(2 <= len(ws) <= 8)
        for w in ws:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metrics(self):
        e2e, layers = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        names = [w["name"] for w in self.spec["workloads"]]
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))

    def test_matches_the_binary(self):
        for key, const in (("end_to_end", "END_TO_END"), ("per_layer", "PER_LAYER")):
            listed = [(m["name"], m["unit"]) for m in self.spec[key]]
            self.assertEqual(listed, source_metrics(const), key)


if __name__ == "__main__":
    unittest.main()

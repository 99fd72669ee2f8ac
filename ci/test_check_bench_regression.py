#!/usr/bin/env python3
"""Self-check of check_bench_regression.py's --require-equal-counters gate.

Runs the gate on small snapshot pairs written to a temporary directory and
asserts its exit status: equal snapshots pass, a drifted counter fails, a
gauge family dropped from the run (or new in it) fails, and a gauge whose
value alone moved passes.

Usage:
    python3 ci/test_check_bench_regression.py
"""

import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")

BASELINE = """\
# HELP sdx_rules_total rules installed
# TYPE sdx_rules_total counter
sdx_rules_total 12
# HELP sdx_flow_table_rules live flow-table rules
# TYPE sdx_flow_table_rules gauge
sdx_flow_table_rules 7
# HELP sdx_arp_bindings live ARP bindings
# TYPE sdx_arp_bindings gauge
sdx_arp_bindings 3
"""


def without_family(text, family):
    return "".join(line for line in text.splitlines(keepends=True)
                   if family not in line)


class RequireEqualCounters(unittest.TestCase):
    def gate(self, current, baseline=BASELINE):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, text in (("baseline.prom", baseline),
                               ("current.prom", current)):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                paths.append(path)
            env = dict(os.environ)
            env.pop("GITHUB_STEP_SUMMARY", None)
            return subprocess.run(
                [sys.executable, SCRIPT, *paths, "--require-equal-counters"],
                capture_output=True, text=True, env=env)

    def test_equal_snapshots_pass(self):
        self.assertEqual(self.gate(BASELINE).returncode, 0)

    def test_drifted_counter_fails(self):
        run = self.gate(BASELINE.replace("sdx_rules_total 12",
                                         "sdx_rules_total 13"))
        self.assertEqual(run.returncode, 1)
        self.assertIn("counter drifted: sdx_rules_total", run.stderr)

    def test_gauge_family_dropped_from_run_fails(self):
        run = self.gate(without_family(BASELINE, "sdx_arp_bindings"))
        self.assertEqual(run.returncode, 1)
        self.assertIn("gauge family missing from the run: sdx_arp_bindings",
                      run.stderr)

    def test_gauge_family_new_in_run_fails(self):
        run = self.gate(BASELINE,
                        baseline=without_family(BASELINE, "sdx_arp_bindings"))
        self.assertEqual(run.returncode, 1)
        self.assertIn("gauge family absent from the baseline: "
                      "sdx_arp_bindings", run.stderr)

    def test_gauge_value_alone_passes(self):
        run = self.gate(BASELINE.replace("sdx_flow_table_rules 7",
                                         "sdx_flow_table_rules 9"))
        self.assertEqual(run.returncode, 0, run.stderr)


if __name__ == "__main__":
    unittest.main()

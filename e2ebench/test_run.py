#!/usr/bin/env python3
"""Self-tests of the benchmark's checking and statistics code.

    python3 e2ebench/test_run.py

Needs no build: the "CLI" in these tests is a python3 one-liner.
"""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TABULAR = (b"qa\ts1\t100.0\t10\t0\t0\t1\t10\t1\t10\t1e-5\t30.0\n"
           b"qa\ts2\t90.0\t10\t1\t0\t1\t10\t1\t10\t1e-4\t25.0\n"
           b"qc\ts3\t80.0\t10\t2\t0\t1\t10\t1\t10\t1e-3\t20.0\n")
PAIRWISE = (b"Query= qa\n  Length=10\n\n> s1\nLength=10\n\n"
            b"Query= qb\n  Length=12\n\n***** No hits found *****\n\n")


def fake_cli(report, rc=0):
    """argv of a program that prints `report` and exits with `rc`."""
    code = (f"import sys; sys.stdout.buffer.write({report!r}); "
            f"sys.exit({rc})")
    return [sys.executable, "-c", code]


class ReferenceChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.err = os.path.join(self.tmp.name, "stderr.log")

    def tearDown(self):
        self.tmp.cleanup()

    def observe(self, argv):
        call = run.run_call(argv, self.err)
        return [(0, call.rc, run.digest(call.out))]

    def test_matching_reference_passes(self):
        tally = run.Tally()
        run.tally_reports(tally, self.observe(fake_cli(TABULAR)),
                          [run.digest(TABULAR)])
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_tampered_reference_is_caught(self):
        tampered = bytearray(TABULAR)
        tampered[5] ^= 0x01
        tally = run.Tally()
        run.tally_reports(tally, self.observe(fake_cli(TABULAR)),
                          [run.digest(bytes(tampered))])
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_nonzero_exit_is_a_failure_even_with_the_right_report(self):
        tally = run.Tally()
        run.tally_reports(tally, self.observe(fake_cli(TABULAR, rc=3)),
                          [run.digest(TABULAR)])
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_per_query_reference_from_a_batch_report(self):
        sections = run.query_sections(PAIRWISE, "pairwise")
        self.assertEqual([s[0] for s in sections], ["qa", "qb"])
        _, start, end = sections[1]
        self.assertTrue(PAIRWISE[start:end].startswith(b"Query= qb"))
        self.assertEqual(end, len(PAIRWISE))


class Latency(unittest.TestCase):
    def test_query_without_hits_completes_with_the_next_report(self):
        call = run.Call(wall=3.0, rc=0, maxrss_kb=0, out=TABULAR,
                        chunks=[(1.0, 40), (2.0, len(TABULAR))])
        times = run.completion_times(call, ["qa", "qb", "qc", "qd"],
                                     "tabular")
        # qa ends in the second chunk; qb (no hits) is known complete when
        # qc's first byte arrives; qd (no hits, last) at exit.
        self.assertEqual(times, [2.0, 2.0, 2.0, 3.0])

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        values = list(range(1, run.MIN_LATENCY_SAMPLES + 1))
        tail = run.nearest_rank(values, run.TAIL_PCT)
        self.assertEqual(sum(v > tail for v in values), 10)


class Inputs(unittest.TestCase):
    def test_picked_queries_are_distinct_and_track_the_targets(self):
        pool = [(f"s{i}", "A" * (40 + 2 * i)) for i in range(500)]
        pool += pool[:10]  # sampled with replacement: duplicates
        picked = run.pick_queries(pool, 8)
        self.assertEqual(len({n for n, _ in picked}), 8)
        for (_, seq), target in zip(picked, run.length_targets(8)):
            self.assertLessEqual(abs(len(seq) - target), 1.0)

    def test_targets_follow_the_sprot_model(self):
        targets = run.length_targets(33)
        self.assertEqual(targets, sorted(targets))
        self.assertAlmostEqual(targets[16], 292.0)


class Refusals(unittest.TestCase):
    def test_refuses_with_fault_injection_armed(self):
        env = dict(os.environ, MUBLASTP_FAULTS="index.crc:1")
        proc = subprocess.run(
            [sys.executable, run.__file__, "--workload", "batch",
             "--seed", "1", "--seconds", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()

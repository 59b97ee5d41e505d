"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import resource
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import stages  # noqa: E402
import widetable  # noqa: E402
from fano95 import cli, expected_fail_tags, load_packaged_families  # noqa: E402
from fano95.certificates import Method, load_surface_rows  # noqa: E402
from fano95.wps import StratumCurve  # noqa: E402
from run import OUT, ColdCli, run_main  # noqa: E402


def write_table(text: str) -> str:
    OUT.mkdir(exist_ok=True)
    table = OUT / "selftest-wide.tsv"
    table.write_text(text)
    return str(table)


def stage_calls(entry, *callers: str) -> list[str]:
    """Module-level functions of ``fano95`` (outside ``cli``) and
    ``json.loads`` that code in the ``callers`` files calls while ``entry()``
    runs, in call order."""
    calls = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_back is None:
            return
        if Path(frame.f_back.f_code.co_filename).name not in callers:
            return
        module = frame.f_globals.get("__name__", "")
        code = frame.f_code
        if (module, code.co_name) == ("json", "loads") or (
            module.startswith("fano95.") and module != "fano95.cli"
            and getattr(getattr(sys.modules[module], code.co_name, None), "__code__", None) is code
        ):
            calls.append(f"{module}.{code.co_name}")

    sys.setprofile(profile)
    try:
        entry()
    finally:
        sys.setprofile(None)
    return calls


class WideTableTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.db = load_packaged_families()

    def test_same_seed_gives_identical_bytes(self):
        first, stats = widetable.generate(self.db, 7)
        again, _ = widetable.generate(self.db, 7)
        self.assertEqual(first.encode(), again.encode())
        self.assertNotEqual(first, widetable.generate(self.db, 8)[0])
        self.assertEqual(stats["method_41"] + stats["method_42"], 950)

    def test_rows_cover_every_stratum_with_derived_tags(self):
        text, _ = widetable.generate(self.db, 3)
        rows = load_surface_rows(io.StringIO(text))
        self.assertEqual(len({(r.family, r.vanishing) for r in rows}), 950)
        for row in rows:
            f = self.db.get(row.family)
            self.assertEqual(row.fails, expected_fail_tags(f))
            if row.method is Method.M42:
                curve = StratumCurve.from_vanishing(f.weights, row.vanishing)
                self.assertGreater(row.m * f.a_cube, curve.degree)


class CheckerTest(unittest.TestCase):
    def test_json_checker(self):
        out, code = run_main(cli.main, ["full", "--format", "json"])
        self.assertIsNone(checks.check_json(out, code))
        self.assertIsNotNone(checks.check_json(b"", 0))
        self.assertIsNotNone(checks.check_json(out[: len(out) // 2], 0))
        self.assertIsNotNone(checks.check_json(out[:-3], 0))
        self.assertIsNotNone(checks.check_json(out, 1))

    def test_text_checker(self):
        text, stats = widetable.generate(load_packaged_families(), 5)
        out, code = run_main(cli.main, ["full", "--table", write_table(text)])
        rows = stats["rows"]
        self.assertEqual(code, 1)
        self.assertIsNone(checks.check_text(out, code, rows))
        self.assertIsNotNone(checks.check_text(b"", code, rows))
        self.assertIsNotNone(checks.check_text(out[: len(out) // 2], code, rows))
        self.assertIsNotNone(checks.check_text(out[:-1], code, rows))
        self.assertIsNotNone(checks.check_text(out, 0, rows))
        packaged, packaged_code = run_main(cli.main, ["full"])
        self.assertEqual(packaged_code, 0)
        self.assertIsNone(checks.check_text(packaged, 0, 21))


class StagesTest(unittest.TestCase):
    def check_format(self, fmt: str, table: str | None) -> None:
        argv = ["full", "--format", fmt] + (["--table", table] if table else [])
        result = {}
        cli_calls = stage_calls(lambda: result.update(cli=run_main(cli.main, argv)),
                                "cli.py")
        tracer = stages.Tracer()
        traced_calls = stage_calls(
            lambda: result.update(traced=stages.traced_full(tracer, fmt, table=table)),
            "cli.py", "stages.py",
        )
        self.assertEqual(traced_calls, cli_calls)
        output, code, _ = result["traced"]
        self.assertEqual((output.encode(), code), result["cli"])
        names = {span[0] for span in tracer.spans}
        self.assertTrue(names <= set(stages.STAGES))
        self.assertIn("report.encode" if fmt == "json" else "report.render", names)

    def test_json_stages_match_cmd_full(self):
        self.check_format("json", None)

    def test_text_stages_match_cmd_full(self):
        text, _ = widetable.generate(load_packaged_families(), 9)
        self.check_format("text", write_table(text))

    def test_self_times_subtract_children(self):
        spans = [
            ["audit", 0.0, 10.0, -1, 1],
            ["a", 1.0, 4.0, 0, 1],
            ["b", 2.0, 3.0, 1, 1],
            ["a", 5.0, 6.0, 0, 1],
            ["audit", 20.0, 22.0, -1, 2],
        ]
        self.assertEqual(stages.self_times(spans), {
            1: {"audit": 6.0, "a": 3.0, "b": 1.0},
            2: {"audit": 2.0},
        })


class ColdCliRssTest(unittest.TestCase):
    def test_peak_rss_is_the_child_own(self):
        ballast = bytearray(128 * 2**20)
        ballast[::4096] = b"\1" * len(ballast[::4096])  # touch every page
        harness_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wl = ColdCli(0)
        out, code = wl.audit()
        self.assertEqual(code, 0)
        self.assertIsNone(checks.check_json(out, code))
        self.assertGreater(wl.rss_kib, 0)
        self.assertLess(wl.rss_kib, harness_kib - 100 * 1024)


if __name__ == "__main__":
    unittest.main()

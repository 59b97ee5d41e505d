"""Benchmark of ``audit full``: three closed-loop workloads, traced layer by layer.

Run from the repository root; the package is imported from ``src``:

    python3 perfbench/run.py --workload warm-json --seed 1 --seconds 20 --trace 0

Every workload is one caller running one audit at a time, with no threads.

* ``cold-cli``: each audit is a fresh interpreter running
  ``fano95.cli.entrypoint`` as ``full --format json`` on the packaged tables.
  This is what a user or a CI job pays; interpreter start and imports
  dominate it, so compute changes barely register.
* ``warm-json``: ``cli.main(["full", "--format", "json"])`` in this process
  on the packaged tables, stdout captured.  No import cost, so JSON encoding,
  the lists and certificates work and revalidation show; the text renderer
  is never called.
* ``wide-text``: ``cli.main(["full", "--table", T])`` in text format in this
  process, where T is the 950-row table ``widetable`` generates from the
  seed.  Certificates and coverage grow with the rows; JSON encoding and
  revalidation are never called.  The audit exits 1 by design (some rows
  certify INVALID and some families are Gaps), which is its expected result.

Set-up (importing ``fano95``, writing the workload's table, one untimed
warm-up audit that is checked in full) is timed in fresh processes and
reported as ``setup_s``.  Every timed audit must then reproduce the warm-up's
exit code and bytes.

End-to-end times are scaled to the machine's pace.  On a shared machine the
speed of one core drifts by 30% and more over seconds, which would swamp any
change to the code.  So a yardstick is timed before the first audit and
after each one: a bare interpreter's start and exit for ``cold-cli``, a fixed
pure-Python loop for the in-process workloads.  An audit of ``t`` seconds
between yardsticks of mean ``y`` counts as ``t * YARDSTICK_S / y``, and so
does each set-up, between yardsticks timed in its own process.  The unscaled
figures are printed too and go to the run record.

With ``--trace 1`` untraced and traced audits alternate and the per-layer
metrics are reported instead, unscaled: the self time of each stage span
(see ``stages``) per audit, as a median, and the counts the stages return.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the error rate, printed above it, is ``failed / attempted``.
The run record and the span dump are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import checks
import stages
import widetable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: At least this many untraced audits, so at least 10 lie beyond the p90.
MIN_SAMPLES = 100
#: Fresh processes that each time the set-up; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Fresh ``python -c pass`` processes timed for the environment record.
FLOOR_PROBES = 5

END_TO_END_UNITS = {
    "audit_p50_ms": "ms",
    "audit_p90_ms": "ms",
    "audits_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

ENV = {k: v for k, v in os.environ.items() if k != "AUDIT_DATA_DIR"}
ENV["PYTHONPATH"] = str(SRC)


def run_child(args: list[str]) -> tuple[bytes, int, bytes]:
    """Run a fresh interpreter; returns its stdout, exit code and stderr."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=ENV)
    return proc.stdout, proc.returncode, proc.stderr


def bare_interpreter() -> float:
    """Seconds a fresh ``python -c pass`` takes, start to exit."""
    start = perf_counter()
    run_child(["-c", "pass"])
    return perf_counter() - start


def yardstick_loop() -> float:
    """Seconds a fixed pure-Python loop takes: exact-rational arithmetic and
    string and dict work, like the audit's but independent of ``src``."""
    start = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 1200):
        total += Fraction(i % 7 + 1, i % 11 + 2)
        seen[f"{total.numerator % 97}/{i}"] = i
    return perf_counter() - start


def run_main(main, argv: list[str]) -> tuple[bytes, int]:
    """Call ``cli.main`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return out.getvalue().encode(), code


def run_coldaudit(*flags: str) -> tuple[bytes, int, dict]:
    """Run ``coldaudit.py`` in a fresh interpreter; returns stdout, exit code
    and the JSON record it writes to stderr."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "coldaudit.py"), *flags],
        capture_output=True, env=ENV,
    )
    record = json.loads(proc.stderr.decode().splitlines()[-1])
    return proc.stdout, proc.returncode, record


class ColdCli:
    #: ``audit full --format json`` as the ``audit`` script runs it.  On the
    #: way out the child writes its own peak RSS (``VmHWM``) to stderr: its
    #: ``ru_maxrss`` would start at this process's peak, which it inherits at
    #: fork and keeps through exec.
    ARGV = ["-c", "import sys\n"
            "try:\n"
            "    from fano95.cli import entrypoint\n"
            "    entrypoint()\n"
            "finally:\n"
            "    sys.stderr.write(next(line for line in open('/proc/self/status')\n"
            "                          if line.startswith('VmHWM:')))\n",
            "full", "--format", "json"]
    #: A bare interpreter's start and exit, on a quiet machine.
    YARDSTICK_S = 0.060
    yardstick = staticmethod(bare_interpreter)

    def __init__(self, seed: int) -> None:
        import fano95.report  # noqa: F401  (the check revalidates in this process)
        self.rss_kib = 0

    def audit(self) -> tuple[bytes, int]:
        out, code, err = run_child(self.ARGV)
        # The last stderr line reads "VmHWM:  <n> kB".
        self.rss_kib = max(self.rss_kib, int(err.splitlines()[-1].split()[1]))
        return out, code

    def traced(self, tracer: stages.Tracer) -> tuple[bytes, int, dict]:
        out, code, record = run_coldaudit()
        tracer.adopt(record["spans"])
        return out, code, record["counts"]

    check = staticmethod(checks.check_json)

    def peak_rss_mib(self) -> float:
        return self.rss_kib / 1024


class WarmJson:
    #: ``yardstick_loop``'s time on a quiet machine.
    YARDSTICK_S = 0.004
    yardstick = staticmethod(yardstick_loop)

    def __init__(self, seed: int) -> None:
        from fano95 import cli
        self.main = cli.main
        self.argv = ["full", "--format", "json"]

    def audit(self) -> tuple[bytes, int]:
        return run_main(self.main, self.argv)

    def traced(self, tracer: stages.Tracer) -> tuple[bytes, int, dict]:
        out, code, counts = stages.traced_full(tracer, "json")
        return out.encode(), code, counts

    check = staticmethod(checks.check_json)

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class WideText(WarmJson):
    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from fano95 import load_packaged_families
        text, self.generator = widetable.generate(load_packaged_families(), seed)
        OUT.mkdir(exist_ok=True)
        self.table = OUT / f"wide-seed{seed}.tsv"
        self.table.write_text(text)
        self.argv = ["full", "--table", str(self.table)]

    def traced(self, tracer: stages.Tracer) -> tuple[bytes, int, dict]:
        out, code, counts = stages.traced_full(tracer, "text", table=str(self.table))
        return out.encode(), code, counts

    def check(self, out: bytes, code: int) -> str | None:
        return checks.check_text(out, code, self.generator["rows"])


WORKLOADS = {"cold-cli": ColdCli, "warm-json": WarmJson, "wide-text": WideText}


def set_up(workload: str, seed: int):
    """Import the package, build the workload's inputs, run and check one
    warm-up audit.  Returns the workload, the expected (output, exit code),
    the check's problem or None, and the seconds taken."""
    start = perf_counter()
    wl = WORKLOADS[workload](seed)
    expected = wl.audit()
    problem = wl.check(*expected)
    return wl, expected, problem, perf_counter() - start


def environment() -> dict:
    """Python version, cores, and the bare interpreter floor that ``cold-cli``
    numbers must be read against (``site`` imports included)."""
    floor = [bare_interpreter() for _ in range(FLOOR_PROBES)]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                          capture_output=True, env=ENV, text=True)
    imports = {name.strip(): int(cumulative) / 1e3 for _, cumulative, name in (
        line.split("|") for line in proc.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    ) if cumulative.strip().isdigit()}
    site_ms = imports.pop("site", None)
    heaviest = max(imports, key=imports.get, default=None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "interpreter_floor_ms": median(floor) * 1e3,
        "site_import_ms": site_ms,
        "heaviest_startup_import": [heaviest, imports.get(heaviest)],
    }


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set up in this fresh process; returns the seconds taken and the mean
    of the yardsticks timed just before and after."""
    yardstick = WORKLOADS[workload].yardstick
    before = yardstick()
    seconds = set_up(workload, seed)[-1]
    return seconds, (before + yardstick()) / 2


def setup_probes(workload: str, seed: int) -> list[tuple[float, float]]:
    """``setup_probe`` in ``SETUP_PROBES`` fresh processes."""
    pairs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            capture_output=True, env=ENV, text=True, check=True,
        )
        pairs.append(tuple(json.loads(proc.stdout)))
    return pairs


def measure(wl, expected, seconds: float, tracer: stages.Tracer | None) -> dict:
    """Closed loop for ``seconds``: one audit at a time, alternating untraced
    and traced audits when ``tracer`` is given.  Every audit must reproduce
    the expected exit code and bytes.  Yardsticks are timed before the first
    audit and after each untraced one, so each untraced audit lies between
    ``yardsticks[i]`` and ``yardsticks[i + 1]``.  A traced run also times a
    bare interpreter and a fresh ``import fano95.cli`` after each pair, so
    those floors are sampled in step with the audits."""
    untraced, traced, counts, problems, floor, imports = [], [], [], [], [], []
    yardsticks = [wl.yardstick()]
    attempted = failed = 0
    deadline = perf_counter() + seconds
    order = (False, True) if tracer else (False,)
    while perf_counter() < deadline or (tracer is None and attempted < MIN_SAMPLES):
        order = order[::-1]  # a traced run alternates which kind goes first
        for is_traced in order:
            attempted += 1
            t0 = perf_counter()
            try:
                if is_traced:
                    tracer.audit += 1
                    with tracer.span(stages.ROOT):
                        out, code, audit_counts = wl.traced(tracer)
                else:
                    out, code = wl.audit()
            except Exception:
                failed += 1
                problems.append(traceback.format_exc())
                continue
            if is_traced:
                traced.append(perf_counter() - t0)
                counts.append(audit_counts)
            else:
                untraced.append(perf_counter() - t0)
                yardsticks.append(wl.yardstick())
            if (out, code) != expected:
                failed += 1
                problems.append(wl.check(out, code) or "output differs from the warm-up's")
        if tracer:
            floor.append(bare_interpreter())
            imports.append(run_coldaudit("--import-only")[2])
    return {
        "untraced": untraced, "yardsticks": yardsticks, "traced": traced, "counts": counts,
        "floor": floor, "imports": imports,
        "attempted": attempted, "failed": failed, "problems": problems,
    }


def timings(lat: list[float], setup_s: float) -> dict:
    """Percentiles of audit times in seconds, the rate of a caller that does
    nothing but audits (count over the time spent in them), and set-up."""
    return {
        "audit_p50_ms": median(lat) * 1e3,
        "audit_p90_ms": quantiles(lat, n=10)[8] * 1e3,
        "audits_per_s": len(lat) / sum(lat),
        "setup_s": setup_s,
    }


def end_to_end(wl, run: dict, setups: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics, with times scaled to the machine's pace.

    An audit's or a set-up's time ``t`` becomes ``t * YARDSTICK_S / y``,
    where ``y`` is the mean of the yardsticks timed just before and after it.
    """
    y = run["yardsticks"]
    lat = [t * wl.YARDSTICK_S * 2 / (y[i] + y[i + 1]) for i, t in enumerate(run["untraced"])]
    setup_s = median(t * wl.YARDSTICK_S / ys for t, ys in setups)
    return {**timings(lat, setup_s), "peak_rss_mib": wl.peak_rss_mib()}


def per_layer(workload: str, run: dict, tracer: stages.Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, unscaled."""
    per_audit = list(stages.self_times(tracer.spans).values())
    layer = {f"{name}_ms": (median(a.get(name, 0.0) for a in per_audit) * 1e3, "ms")
             for name in stages.STAGES}
    p50 = median(run["untraced"]) * 1e3
    interpreter_ms = median(run["floor"]) * 1e3
    # Stage spans, and in a fresh interpreter the import span, of each audit.
    spanned_ms = median(sum(t for name, t in a.items() if name != stages.ROOT)
                        for a in per_audit) * 1e3
    if workload == "cold-cli":
        spanned_ms += interpreter_ms
    layer.update({
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (median(s[2] - s[1] for r in run["imports"] for s in r["spans"]
                                 if s[0] == "cli.import") * 1e3, "ms"),
        "cli.import_modules": (median(r["import_modules"] for r in run["imports"]), "count"),
        "cli.unaccounted_ms": (p50 - spanned_ms, "ms"),
        "trace.overhead_ratio": (median(run["traced"]) * 1e3 / p50, "ratio"),
    })
    for name, value in run["counts"][-1].items():
        layer[name] = (value, name.rpartition("_")[2] if name.endswith(("_ratio", "_bytes"))
                       else "count")
    return layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fano95" / "__init__.py").is_file():
        print(f"error: no fano95 package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("AUDIT_DATA_DIR", None)
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    env = environment()
    wl, expected, problem, own_setup = set_up(args.workload, args.seed)
    setups = setup_probes(args.workload, args.seed)
    tracer = stages.Tracer() if args.trace else None
    run = measure(wl, expected, args.seconds, tracer)
    if problem:
        run["failed"] = run["attempted"]
        run["problems"].insert(0, f"warm-up audit: {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "output_sha256": hashlib.sha256(expected[0]).hexdigest(),
        "exit_code": expected[1],
        "samples": {"untraced": len(run["untraced"]), "traced": len(run["traced"])},
        "error_rate": run["failed"] / run["attempted"],
        "setup_probes_s_and_yardstick_s": setups,
        "setup_in_run_s": own_setup,
        # This process's own peak: on cold-cli it ran no audit itself.
        "harness_peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "generator": getattr(wl, "generator", None),
        "problems": run["problems"][:5],
    }
    if args.trace:
        metrics = per_layer(args.workload, run, tracer)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(wl, run, setups).items()}
        record["unscaled"] = {**timings(run["untraced"], median(t for t, _ in setups)),
                              "yardstick_ms": median(run["yardsticks"]) * 1e3}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.spans) + "\n")

    for line in run["problems"][:5]:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {run['attempted']} audits, "
          f"{run['failed']} failed, exit code {expected[1]}, "
          f"output sha256 {record['output_sha256']}")
    print(f"Python {env['python']}, nproc {env['nproc']}, bare interpreter "
          f"{env['interpreter_floor_ms']:.1f} ms, of which site imports "
          f"{env['site_import_ms']} ms (heaviest: {env['heaviest_startup_import']})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28} {value:12.4f} {unit}")
    print(f"  {'error_rate':28} {record['error_rate']:12.4f} ratio")
    for name, value in record.get("unscaled", {}).items():
        print(f"  {'unscaled ' + name:28} {value:12.4f}")
    print(f"record: {OUT / f'result-{stem}.json'}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

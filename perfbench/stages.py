"""Spans around the stages of ``audit full``, recorded from the benchmark's side.

``traced_full`` calls the same public functions, in the same order, that
``fano95.cli.cmd_full`` calls for the chosen format, and wraps each stage in
a span named after the ROADMAP stage.  Argument parsing, path resolution and
writing to stdout stay outside every stage span; the benchmark reports them
as ``cli.unaccounted_ms``.

This module imports only ``time`` at load time, so a fresh process can time
``import fano95.cli`` after importing it.
"""

from __future__ import annotations

from time import perf_counter

#: Stage span names, as the per-layer metrics name them (without ``_ms``).
STAGES = (
    "families.load",
    "certificates.load_rows",
    "certificates.certify",
    "coverage.build",
    "lemmas.lists",
    "report.document",
    "report.encode",
    "report.parse",
    "report.revalidate",
    "report.render",
)

ROOT = "audit"


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, audit]`` lists.

    ``parent`` is the index of the enclosing span in ``spans`` (-1 for none),
    ``audit`` the id of the audit the span belongs to; times are
    ``time.perf_counter`` seconds.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.audit = 0
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by another process, such as ``coldaudit``,
        under the open span and the current audit."""
        base = len(self.spans)
        outer = self._open[-1] if self._open else -1
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, base + parent if parent >= 0 else outer,
                               self.audit])


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._open[-1] if tr._open else -1
        tr.spans.append([self.name, perf_counter(), 0.0, parent, tr.audit])
        tr._open.append(self.index)

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer._open.pop()


def self_times(spans) -> dict[int, dict[str, float]]:
    """Per audit, the self time in seconds of each span name: a span's
    duration minus the part its child spans cover, summed over its spans.
    Parents are indices into ``spans``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, float]] = {}
    for i, (name, start, end, _, audit) in enumerate(spans):
        per = out.setdefault(audit, {})
        per[name] = per.get(name, 0.0) + (end - start) - child_time[i]
    return out


def traced_full(tr: Tracer, fmt: str, table=None):
    """Run ``audit full --format fmt`` as ``cmd_full`` does, under spans.

    ``table`` plays the ``--table`` flag; the families table is resolved as
    without ``--families``.  Returns the text ``cmd_full`` would write to
    stdout, its exit code, and the per-layer counts of this audit.
    """
    import json

    from fano95 import cli, report
    from fano95.certificates import (
        SURFACE_ROWS_FILENAME,
        case3_test_class_certificates,
        load_surface_rows,
        verify_surface_table,
    )
    from fano95.coverage import build_coverage
    from fano95.families import load_families

    families_path = cli.resolve_data_path(None, cli.FAMILIES_FILENAME)
    with tr.span("families.load"):
        db = load_families(families_path)
    rows_path = cli.resolve_data_path(table, SURFACE_ROWS_FILENAME)
    with tr.span("certificates.load_rows"):
        rows = load_surface_rows(rows_path)
    with tr.span("certificates.certify"):
        tc = case3_test_class_certificates(db)
        verification = verify_surface_table(db, rows)
    with tr.span("coverage.build"):
        coverage = build_coverage(db, rows)
    with tr.span("lemmas.lists"):
        lists_ok = not report.list_mismatches(report.derived_lists(db))
    certs_ok = all(c.valid for c in tc) and verification.ok
    coverage_ok = all(c.status == "Covered" for c in coverage)
    ok = lists_ok and certs_ok and coverage_ok
    if fmt == "json":
        with tr.span("report.document"):
            with tr.span("lemmas.lists"):
                lists = report.lists_section(db)
            document = report.build_document(
                db,
                lists=lists,
                test_class=report.test_class_section(tc),
                surface=report.surface_section(db, verification, rows),
                coverage=report.coverage_section(coverage),
            )
        with tr.span("report.encode"):
            output = report.to_json(document)
        with tr.span("report.parse"):
            parsed = json.loads(output)
        with tr.span("report.revalidate"):
            problems = report.revalidate_document(parsed)
        ok = ok and not problems
    else:
        with tr.span("report.render"):
            parts = [report.render_validate(db)]
            for text, _ in (
                report.render_lists(db),
                report.render_certificates(tc, verification),
                report.render_coverage(coverage),
            ):
                parts.append(text)
        output = "".join(parts)
    certs = verification.certificates
    counts = {
        "certificates.rows": len(rows),
        "certificates.valid_ratio": sum(c.valid for c in certs) / len(certs),
        "certificates.tag_mismatches": len(verification.tag_mismatches),
        "coverage.covered": sum(c.status == "Covered" for c in coverage),
        "coverage.gaps": sum(c.status != "Covered" for c in coverage),
        "report.output_bytes": len(output.encode()),
    }
    return output, cli.EXIT_OK if ok else cli.EXIT_CHECK_FAILED, counts

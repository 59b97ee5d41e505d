"""The ``audit`` command line: validate, lists, certify, full.

Exit codes: 0 when every requested check passes, 1 when a derived list or a
certificate fails, 2 for input problems (unreadable, unparsable, or invalid
data files).  Data files resolve in three steps: an explicit ``--families`` /
``--table`` flag wins; otherwise a file of the standard name inside
``$AUDIT_DATA_DIR`` (authoritative when the variable is set); otherwise the
tables shipped inside the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import report
from .certificates import (
    SURFACE_ROWS_FILENAME,
    CertificateError,
    SurfaceRowParseError,
    case3_test_class_certificates,
    load_surface_rows,
    verify_surface_table,
)
from .coverage import build_coverage
from .families import FamilyTableError, load_families, packaged_data_path

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

#: Environment variable naming a directory holding the two data files.
DATA_DIR_ENV = "AUDIT_DATA_DIR"

FAMILIES_FILENAME = "families.tsv"


class _InputError(Exception):
    """Wraps any input-side failure so main() can map it to exit code 2."""


def resolve_data_path(explicit: str | None, filename: str) -> Path:
    """Apply the flag > environment > packaged-data resolution order."""
    if explicit:
        return Path(explicit)
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        return Path(env_dir) / filename
    return packaged_data_path(filename)


def _load_db(args):
    path = resolve_data_path(args.families, FAMILIES_FILENAME)
    try:
        return load_families(path)
    except (OSError, UnicodeDecodeError, FamilyTableError) as exc:
        raise _InputError(f"families table {path}: {exc}") from exc


def _load_rows(args):
    path = resolve_data_path(args.table, SURFACE_ROWS_FILENAME)
    try:
        return load_surface_rows(path)
    except (OSError, UnicodeDecodeError, SurfaceRowParseError) as exc:
        raise _InputError(f"surface-row table {path}: {exc}") from exc


def _emit_json(document: dict) -> int:
    """Print the canonical JSON after checking it re-validates from itself."""
    text = report.to_json(document)
    problems = report.revalidate_document(json.loads(text))
    sys.stdout.write(text)
    if problems:
        for p in problems:
            print(f"round-trip failure: {p}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_validate(args) -> int:
    db = _load_db(args)
    sys.stdout.write(report.render_validate(db))
    return EXIT_OK


def cmd_lists(args) -> int:
    db = _load_db(args)
    if args.format == "json":
        lists = report.lists_section(db)
        rc = _emit_json(report.build_document(db, lists=lists))
        ok = all(entry["match"] for entry in lists.values())
        return rc if ok else EXIT_CHECK_FAILED
    text, ok = report.render_lists(db)
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _certificates(db, rows):
    """Every certificate; raises CertificateError when one cannot be built."""
    return case3_test_class_certificates(db), verify_surface_table(db, rows)


def cmd_certify(args) -> int:
    db = _load_db(args)
    rows = _load_rows(args)
    try:
        tc, verification = _certificates(db, rows)
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.format == "json":
        document = report.build_document(
            db,
            test_class=report.test_class_section(tc),
            surface=report.surface_section(db, verification, rows),
        )
        rc = _emit_json(document)
        return rc if verification.ok else EXIT_CHECK_FAILED
    text, ok = report.render_certificates(tc, verification)
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_full(args) -> int:
    db = _load_db(args)
    rows = _load_rows(args)
    try:
        tc, verification = _certificates(db, rows)
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    coverage = build_coverage(db, rows, verification=verification)
    derived = report.derived_lists(db)
    lists_ok = not report.list_mismatches(derived)
    coverage_ok = all(c.status == "Covered" for c in coverage)
    ok = lists_ok and verification.ok and coverage_ok
    if args.format == "json":
        document = report.build_document(
            db,
            lists=report.lists_section(db, derived=derived),
            test_class=report.test_class_section(tc),
            surface=report.surface_section(db, verification, rows),
            coverage=report.coverage_section(coverage),
        )
        rc = _emit_json(document)
        return rc if ok else EXIT_CHECK_FAILED
    out = [report.render_validate(db)]
    text, _ = report.render_lists(db, derived=derived)
    out.append(text)
    text, _ = report.render_certificates(tc, verification)
    out.append(text)
    text, _ = report.render_coverage(coverage)
    out.append(text)
    sys.stdout.write("".join(out))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audit",
        description=(
            "Re-derive and certify every numeric step of the curve-exclusion "
            "case analysis over the 95 hypersurface families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, table: bool, fmt: bool):
        p.add_argument(
            "--families",
            metavar="PATH",
            help="family table TSV (default: $AUDIT_DATA_DIR or packaged data)",
        )
        if table:
            p.add_argument(
                "--table",
                metavar="PATH",
                help="surface-row TSV (default: $AUDIT_DATA_DIR or packaged data)",
            )
        if fmt:
            p.add_argument(
                "--format", choices=("text", "json"), default="text",
                help="output format (default: text)",
            )

    p = sub.add_parser("validate", help="load the family table and check invariants")
    add_common(p, table=False, fmt=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lists", help="derive the membership lists and compare")
    add_common(p, table=False, fmt=True)
    p.set_defaults(func=cmd_lists)

    p = sub.add_parser("certify", help="evaluate every exclusion certificate")
    add_common(p, table=True, fmt=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("full", help="validate, derive lists, certify, and audit coverage")
    add_common(p, table=True, fmt=True)
    p.set_defaults(func=cmd_full)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream consumer (e.g. `head`) closed the pipe; exit with the
        # conventional SIGPIPE status instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 128 + 13
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()

"""The ``audit`` command line: validate, lists, certify, full.

Exit codes: 0 when every requested check passes; 1 when a derived list, a
certificate or a coverage entry fails, with the full report printed; 2 for
input problems (unreadable, unparsable, or invalid data files).  Data files
resolve in three steps: an explicit ``--families`` / ``--table`` flag wins,
and an empty one is an input error that names the flag; otherwise a file of
the standard name inside ``$AUDIT_DATA_DIR`` (authoritative when the variable
is set; an empty value counts as unset); otherwise the packaged tables.
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
    RowError,
    SurfaceRowParseError,
    case3_test_class_certificates,
    load_surface_rows,
    verify_surface_table,
)
from .coverage import build_coverage
from .families import (
    FAMILIES_FILENAME,
    FamilyDatabase,
    FamilyTableError,
    load_families,
    packaged_data_path,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

#: Environment variable naming a directory holding the two data files.
DATA_DIR_ENV = "AUDIT_DATA_DIR"


class _InputError(Exception):
    """Wraps any input-side failure so main() can map it to exit code 2."""


def resolve_data_path(explicit: str | None, filename: str) -> Path:
    """Apply the flag > environment > packaged-data resolution order."""
    if explicit is not None:
        return Path(explicit)
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        return Path(env_dir) / filename
    return packaged_data_path(filename)


def _load_table(explicit: str | None, flag: str, what: str, filename: str, load, error):
    """Load one data table and return its path and contents, raising
    _InputError for any input problem; an explicit empty flag names no file,
    so it is refused by the flag's name."""
    if explicit == "":
        raise _InputError(f"{what} flag {flag} is empty: it names no file")
    path = resolve_data_path(explicit, filename)
    try:
        return path, load(path)
    except (OSError, UnicodeDecodeError, error) as exc:
        raise _InputError(f"{what} {path}: {exc}") from exc


def _emit_json(document: dict, db: FamilyDatabase) -> int:
    """Print the canonical JSON after checking it re-validates from itself;
    ``db``, the database it was written from, spares rebuilding its families."""
    text = report.to_json(document)
    problems = report.revalidate_document(json.loads(text), db=db)
    sys.stdout.write(text)
    if problems:
        for p in problems:
            print(f"round-trip failure: {p}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


#: The sections of the full audit, in the order they are printed.
SECTIONS = ("validate", "lists", "certificates", "coverage")

#: Each subcommand's help line and the sections it prints.
COMMANDS = {
    "validate": ("load the family table and check invariants", ("validate",)),
    "lists": ("derive the membership lists and compare", ("lists",)),
    "certify": ("evaluate every exclusion certificate", ("certificates",)),
    "full": ("validate, derive lists, certify, and audit coverage", SECTIONS),
}


def run_command(args) -> int:
    """Compute each fact the requested sections need once, then print those
    sections.  Coverage reads the certificates, so it is only requested with
    them."""
    sections = args.sections
    families_path, db = _load_table(args.families, "--families", "families table",
                                    FAMILIES_FILENAME, load_families, FamilyTableError)
    ok = True
    if "certificates" in sections:
        path, rows = _load_table(args.table, "--table", "surface-row table",
                                 SURFACE_ROWS_FILENAME, load_surface_rows, SurfaceRowParseError)
        try:  # each error: a quantity too long to print
            tc = case3_test_class_certificates(db)
            verification = verify_surface_table(db, rows)
        except RowError as exc:
            raise _InputError(f"surface-row table {path}: {exc}") from exc
        except CertificateError as exc:  # of a test class, from the families table
            raise _InputError(f"families table {families_path}: {exc}") from exc
        ok = verification.ok and all(c.valid for c in tc)
    if "coverage" in sections:
        coverage = build_coverage(db, rows, verification=verification)
        ok = all(c.status == "Covered" for c in coverage) and ok
    if "lists" in sections:
        # Compared even after a failed check: perfbench/stages.py replays
        # these calls unconditionally and its self-test matches them.
        ok = not report.list_mismatches(report.derived_lists(db)) and ok
    if args.format == "json":
        certified = "certificates" in sections
        document = report.build_document(
            db,
            lists=report.lists_section(db) if "lists" in sections else None,
            test_class=report.test_class_section(tc) if certified else None,
            surface=report.surface_section(db, verification, rows) if certified else None,
            coverage=report.coverage_section(coverage) if "coverage" in sections else None,
        )
        rc = _emit_json(document, db)
        for line in verification.mismatch_lines if certified else ():
            print(line, file=sys.stderr)
        return rc if ok else EXIT_CHECK_FAILED
    render = {
        "validate": lambda: report.render_validate(db),
        "lists": lambda: report.render_lists(db)[0],
        "certificates": lambda: report.render_certificates(tc, verification)[0],
        "coverage": lambda: report.render_coverage(coverage)[0],
    }
    sys.stdout.write("".join(render[s]() for s in SECTIONS if s in sections))
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
    for name, (help_line, sections) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(sections=sections, format="text")
        p.add_argument(
            "--families",
            metavar="PATH",
            help="family table TSV (default: $AUDIT_DATA_DIR or packaged data)",
        )
        if "certificates" in sections:
            p.add_argument(
                "--table",
                metavar="PATH",
                help="surface-row TSV (default: $AUDIT_DATA_DIR or packaged data)",
            )
        if name != "validate":
            p.add_argument(
                "--format", choices=("text", "json"), default="text",
                help="output format (default: text)",
            )
    return parser


#: The parser every main() call reuses: building it costs far more than a
#: parse, and parse_args leaves it unchanged.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return run_command(args)
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

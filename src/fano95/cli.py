"""The ``audit`` command line: validate, lists, certify, full.

Exit codes: 0 when every requested check passes; 1 when a derived list, a
certificate or a coverage entry fails, with the full report printed; 2 for
input problems (unreadable, unparsable, or invalid data files) and for a
report or a help that cannot be written; 141 when stdout is a closed pipe.  Only
main() writes: the report to stdout, each diagnostic line to stderr, or
nowhere where stderr cannot take it, so a stderr fault changes neither the
report nor the exit code.  Data files resolve in three steps: an
explicit ``--families`` / ``--table`` flag wins, and an empty one is an
input error that names the flag; otherwise a file of the standard name
inside ``$AUDIT_DATA_DIR`` (authoritative when the variable is set; an empty
value counts as unset); otherwise the packaged tables.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import report
from .certificates import (
    SURFACE_ROWS_FILENAME,
    CertificateError,
    RowError,
    case3_test_class_certificates,
    load_surface_rows,
    verify_surface_table,
)
from .coverage import build_coverage
from .families import (
    FAMILIES_FILENAME,
    load_families,
    packaged_data_path,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

#: Environment variable naming a directory holding the two data files.
DATA_DIR_ENV = "AUDIT_DATA_DIR"


def _write(text: str) -> None:
    """Write ``text`` to stdout in full as UTF-8, whatever the locale.  Under
    PYTHONUNBUFFERED the text layer takes a short write to a closed pipe as
    success, so the bytes go to the binary buffer until it has taken all of
    them and is flushed, or a write raises BrokenPipeError; a stream without a
    buffer (an ``io.StringIO``) takes the text itself.  No stream at all (Python's
    stdout when fd 1 was closed at start) is an OSError, as a failed write is."""
    out = sys.stdout
    if out is None:
        raise OSError(errno.EBADF, "standard output is closed")
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
        return
    data = memoryview(text.encode())
    out.flush()
    while data:
        data = data[buffer.write(data):]
    buffer.flush()


def _diagnose(lines: list[str]) -> None:
    """Write ``lines`` to stderr, never to stdout; drop them, and leave the exit
    code as it is, where stderr is None (fd 2 closed at start) or a write fails."""
    try:
        sys.stderr.write("".join(f"{line}\n" for line in lines))
    except (AttributeError, OSError):  # AttributeError: stderr is None
        pass


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


def _load_table(explicit: str | None, flag: str, what: str, filename: str, load):
    """Load one data table and return its path and contents, raising
    _InputError for any input problem; an explicit empty flag names no file,
    so it is refused by the flag's name."""
    if explicit == "":
        raise _InputError(f"{what} flag {flag} is empty: it names no file")
    path = resolve_data_path(explicit, filename)
    try:
        return path, load(path)
    except (OSError, ValueError) as exc:  # every table error the loaders raise
        raise _InputError(f"{what} {path}: {exc}") from exc


#: The sections of the full audit, in the order they are printed.
SECTIONS = ("validate", "lists", "certificates", "coverage")

#: Each subcommand's help line and the sections it prints.
COMMANDS = {
    "validate": ("load the family table and check invariants", ("validate",)),
    "lists": ("derive the membership lists and compare", ("lists",)),
    "certify": ("evaluate every exclusion certificate", ("certificates",)),
    "full": ("validate, derive lists, certify, and audit coverage", SECTIONS),
}


def run_command(args) -> tuple[int, str, list[str]]:
    """Compute each fact the requested sections need once and return the exit
    code, the report and the lines for stderr; nothing is written here.
    Coverage reads the certificates, so it is only requested with them."""
    sections = args.sections
    families_path, db = _load_table(args.families, "--families", "families table",
                                    FAMILIES_FILENAME, load_families)
    ok = True
    if "certificates" in sections:
        path, rows = _load_table(args.table, "--table", "surface-row table",
                                 SURFACE_ROWS_FILENAME, load_surface_rows)
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
        # The document must re-validate from itself; db and written spare rebuilding them.
        text = report.to_json(document)
        problems = report.revalidate_document(json.loads(text), db=db, written=document)
        lines = [f"round-trip failure: {p}" for p in problems]
        lines += verification.mismatch_lines if certified else ()
        return (EXIT_OK if ok and not problems else EXIT_CHECK_FAILED), text, lines
    render = {
        "validate": lambda: report.render_validate(db),
        "lists": lambda: report.render_lists(db)[0],
        "certificates": lambda: report.render_certificates(tc, verification)[0],
        "coverage": lambda: report.render_coverage(coverage)[0],
    }
    text = "".join(render[s]() for s in SECTIONS if s in sections)
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), text, []


_DEFAULT_PATH = "(default: $AUDIT_DATA_DIR or packaged data)"

#: Each flag's argparse settings, read by build_parser() and read_command_line().
FLAGS = {
    "--families": dict(metavar="PATH", help=f"family table TSV {_DEFAULT_PATH}"),
    "--table": dict(metavar="PATH", help=f"surface-row TSV {_DEFAULT_PATH}"),
    "--format": dict(choices=("text", "json"), default="text",
                     help="output format (default: text)"),
}


def command_flags(name: str) -> list[str]:
    """The flags a command takes: ``--families``, ``--table`` where the
    certificates are printed, and ``--format`` but for ``validate``."""
    return (["--families"] + ["--table"] * ("certificates" in COMMANDS[name][1])
            + ["--format"] * (name != "validate"))


def build_parser():
    """The argparse parser, built per command line that read_command_line() declines.
    Its help goes out by _write(), so an unwritten help exits 2 or 141 as a report does."""
    import argparse

    class Parser(argparse.ArgumentParser):  # add_subparsers() gives its parsers this class
        def print_help(self):
            _write(self.format_help())

    parser = Parser(prog="audit", description=(
        "Re-derive and certify every numeric step of the curve-exclusion "
        "case analysis over the 95 hypersurface families."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, sections) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(sections=sections, format="text")
        for flag in command_flags(name):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def read_command_line(argv: list[str] | None = None) -> SimpleNamespace | None:
    """build_parser()'s namespace for a command then ``--flag value`` pairs, each
    flag one the command takes, in full and once, each value a str not starting
    with "-"; None for any other argv, which main() leaves to argparse."""
    words = sys.argv[1:] if argv is None else argv
    if not (isinstance(words, (list, tuple)) and len(words) % 2
            and all(isinstance(w, str) for w in words) and words[0] in COMMANDS):
        return None
    command, flags = words[0], dict(zip(words[1::2], words[2::2]))
    if (2 * len(flags) + 1 < len(words) or not flags.keys() <= {*command_flags(command)}
            or any(v.startswith("-") for v in flags.values())
            or flags.get("--format", "text") not in FLAGS["--format"]["choices"]):
        return None
    return SimpleNamespace(command=command, sections=COMMANDS[command][1],
                           families=flags.get("--families"), table=flags.get("--table"),
                           format=flags.get("--format", "text"))


def main(argv: list[str] | None = None) -> int:
    args = read_command_line(argv) or build_parser().parse_args(argv)
    try:
        code, text, lines = run_command(args)
    except _InputError as exc:
        _diagnose([f"error: {exc}"])
        return EXIT_INPUT_ERROR
    _write(text)
    _diagnose(lines)
    return code


def entrypoint() -> None:
    # This process runs one audit and exits, and nothing the imports built
    # can become garbage before then: frozen, it is left out of the audit's
    # collections and of the full ones at exit.  What the audit allocates
    # stays collectable.  main() is the library call and leaves the
    # caller's collector alone.
    gc.freeze()
    try:
        code = main()
    except BrokenPipeError:  # of stdout: _diagnose lets no stderr fault out
        # Downstream consumer (e.g. `head`) closed the pipe; exit with the
        # conventional SIGPIPE status instead of a traceback.
        code = 128 + 13
    except OSError as exc:  # such as a full disk: no report was written, no check failed
        _diagnose([f"error: writing the report: {exc}"])
        code = EXIT_INPUT_ERROR
    finally:  # also after argparse's SystemExit, for --help and usage errors
        # A std stream whose flush fails sends its unwritten bytes to devnull,
        # so the flush at exit can neither fail nor change the exit code.
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed at start
            try:
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()

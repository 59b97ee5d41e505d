"""What an audit writes, and where, when stdout or stderr cannot take it.

Each child audit starts with one fault on one of its std streams: the
descriptor closed, open read-only, on ``/dev/full``, or a pipe whose read end
is closed.  A ``python -c`` prelude makes the fault on its own descriptor and
execs ``python -m fano95``, so Python starts the audit with it.  A stdout
fault ends the audit, or its ``--help``, as a report that cannot be written;
a stderr fault changes neither stdout nor the exit code, because diagnostics
never go to stdout and are dropped where stderr cannot take them.  (A reader
that closes the pipe mid-write is ``tests/test_cli.py``'s sigpipe test.)
"""

import errno
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fano95 import cli, report, revalidate_document
from fano95.certificates import SURFACE_ROWS_FILENAME
from fano95.families import packaged_data_path

ROOT = Path(__file__).resolve().parent.parent
SIGPIPE_EXIT = 128 + 13

#: Python code that makes each fault on descriptor ``fd``.
FAULTS = {
    "closed": "os.close(fd)",
    "read-only": "os.dup2(os.open(os.devnull, os.O_RDONLY), fd)",
    "dev-full": "os.dup2(os.open('/dev/full', os.O_WRONLY), fd)",
    "pipe": "r, w = os.pipe(); os.close(r); os.dup2(w, fd)",
}

#: Each audit of the matrix, by id: its command line, in which MISMATCH
#: stands for the tag-mismatch table and MISSING for a file that is not there.
COMMANDS = {
    "validate": "validate",
    "full": "full",
    "full-json": "full --format json",
    "mismatch-json": "certify --table MISMATCH --format json",
    "input-error": "validate --families MISSING",
    "help": "--help",
}


@pytest.fixture(scope="module")
def audits(tmp_path_factory):
    """Each command of COMMANDS as argv, with its exit code, stdout bytes and
    stderr text when both streams are healthy (from ``cli.main`` in this
    process, which writes the bytes a child does; for help, argparse's
    SystemExit code), at the 80 columns a child's help is formatted in."""
    tmp = tmp_path_factory.mktemp("io")
    # Family 20's row {0,2,3} loses its contracted tag: every certificate
    # stays valid, so the audit fails on the mismatch alone, which the JSON
    # document cannot show and stderr carries.
    good_row, bad_row = "20\t0,2,3\tcontracted\t41\t4\n", "20\t0,2,3\t\t41\t4\n"
    text = packaged_data_path(SURFACE_ROWS_FILENAME).read_text(encoding="utf-8")
    assert text.count(good_row) == 1
    (tmp / "mismatch.tsv").write_text(text.replace(good_row, bad_row), encoding="utf-8")
    paths = {"MISMATCH": str(tmp / "mismatch.tsv"), "MISSING": str(tmp / "missing.tsv")}
    result = {}
    for name, command in COMMANDS.items():
        argv = [paths.get(word, word) for word in command.split()]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.MonkeyPatch.context() as mp:
            mp.setenv("COLUMNS", "80")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # the help
                code = exc.code
        result[name] = argv, code, out.getvalue().encode(), err.getvalue()
    assert [r[1] for r in result.values()] == [0, 0, 0, 1, 2, 0]
    assert [bool(r[2]) for r in result.values()] == [True] * 4 + [False, True]
    assert [r[3].count("\n") for r in result.values()] == [0, 0, 0, 1, 1, 0]
    return result


def _audit(channel: str, fault: str, buffering: str, argv: list[str]):
    """Exit code, stdout bytes and stderr text of ``python -m fano95 *argv``
    started with ``fault`` on ``channel``, and with PYTHONUNBUFFERED set for
    "unbuffered" and unset for "buffered"; ``src`` leads the import path, and
    COLUMNS=80 sets the width of a help."""
    if fault == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["COLUMNS"] = "80"
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    prelude = (f"import os, sys; fd = {1 if channel == 'stdout' else 2}; {FAULTS[fault]}; "
               "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")
    result = subprocess.run([sys.executable, "-S", "-c", prelude, "-m", "fano95", *argv],
                            env=env, capture_output=True, timeout=120)
    return result.returncode, result.stdout, result.stderr.decode()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("channel", ["stdout", "stderr"])
def test_an_audit_with_a_faulty_std_stream(audits, channel, fault, buffering, command):
    argv, code, out, err = audits[command]
    got = _audit(channel, fault, buffering, argv)
    if channel == "stderr":
        # Nothing changes but the lost diagnostics.
        assert got == (code, out, ""), got[::2]
        if out.startswith(b"{"):
            assert revalidate_document(json.loads(out)) == ()
    elif command == "input-error":
        # No report was due, so the fault is never met.
        assert got == (code, b"", err)
    elif fault == "pipe":
        assert got == (SIGPIPE_EXIT, b"", "")
    else:
        # No report was written and no check failed: one line, and the
        # diagnostics of the audit, written after the report, are lost.
        assert got[:2] == (cli.EXIT_INPUT_ERROR, b""), got[2]
        assert got[2].startswith("error: writing the report: "), got[2]
        assert got[2].count("\n") == 1, got[2]


@pytest.mark.parametrize("fault", ["read-only", "dev-full", "pipe"])
def test_a_usage_error_with_a_faulty_stderr_exits_2(fault):
    # argparse leaves by SystemExit after its own write to stderr fails; the
    # exit rule still sends the unwritten bytes to devnull, so the flush at
    # exit cannot turn the usage error's 2 into 120.
    assert _audit("stderr", fault, "buffered", ["frobnicate"]) == (2, b"", "")


class _FailingStream(io.TextIOBase):
    """A text stream whose every write fails, as a write to a bad descriptor does."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [None, _FailingStream()], ids=["none", "failing"])
@pytest.mark.parametrize("case", ["input-error", "mismatch-json", "round-trip"])
def test_main_writes_the_report_whatever_stderr_is(audits, monkeypatch, case, stderr):
    # The library call: stdout holds exactly the report and the exit code is
    # the one a healthy stderr gives, while the diagnostics are dropped.
    argv = audits["full-json" if case == "round-trip" else case][0]
    if case == "round-trip":  # an encoder that misprints family 1's test-class value
        encode = report.to_json
        monkeypatch.setattr(report, "to_json", lambda document: encode(document).replace(
            '"value": "-3/1"', '"value": "-4/1"', 1))
    healthy_out, healthy_err = io.StringIO(), io.StringIO()
    with redirect_stdout(healthy_out), redirect_stderr(healthy_err):
        code = cli.main(argv)
    assert (code, healthy_err.getvalue().count("\n")) == (
        {"input-error": 2}.get(case, 1), 1)
    out = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    with redirect_stdout(out):
        assert cli.main(argv) == code
    assert out.getvalue() == healthy_out.getvalue()
    assert bool(out.getvalue()) == (case != "input-error")

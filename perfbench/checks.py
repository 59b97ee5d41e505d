"""Output checks for one audit.  Each returns a problem string, or None.

A run checks its warm-up audit in full and then requires every timed audit
to give the same exit code and the same bytes, so every audit is checked.
"""

from __future__ import annotations

import json
import re

_FAMILY_LINE = re.compile(r"family +\d+ case\d: .* \[(Covered|Gap)\]")
_SUMMARY_LINE = re.compile(r"coverage: (\d+) Covered, (\d+) Gap")


def check_json(out: bytes, rc: int) -> str | None:
    """``full --format json`` on the packaged tables: exit 0, the document
    re-validates from itself, all 95 families Covered, every list matches."""
    from fano95.families import FAMILY_COUNT
    from fano95.report import revalidate_document

    if not out:
        return "empty output"
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        doc = json.loads(out)
        problems = revalidate_document(doc)
        statuses = [c["status"] for c in doc["coverage"]]
        unmatched = sorted(n for n, entry in doc["lists"].items() if not entry["match"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed or truncated JSON: {exc!r}"
    if problems:
        return f"revalidation: {problems[0]}"
    if statuses.count("Covered") != FAMILY_COUNT:
        return f"{statuses.count('Covered')} of {len(statuses)} families Covered"
    if unmatched:
        return f"lists do not match: {unmatched}"
    return None


def check_text(out: bytes, rc: int, rows: int) -> str | None:
    """``full`` in text format on a table of ``rows`` surface rows: the output
    is complete, and the exit code is 1 exactly when it shows a Gap, an
    INVALID certificate or a MISMATCH."""
    from fano95.families import FAMILY_COUNT

    if not out:
        return "empty output"
    text = out.decode()
    lines = text.splitlines()
    summary = _SUMMARY_LINE.fullmatch(lines[-1])
    if not text.endswith("\n") or summary is None:
        return "output does not end with the coverage summary (truncated?)"
    if not lines[0].startswith(f"ok: {FAMILY_COUNT} families validated"):
        return f"unexpected first line {lines[0]!r}"
    surface = sum(line.startswith("surface family ") for line in lines)
    if surface != rows:
        return f"{surface} surface certificate lines for {rows} rows"
    statuses = [m.group(1) for m in map(_FAMILY_LINE.fullmatch, lines) if m]
    covered, gaps = int(summary.group(1)), int(summary.group(2))
    if (statuses.count("Covered"), statuses.count("Gap")) != (covered, gaps) \
            or covered + gaps != FAMILY_COUNT:
        return f"coverage summary {lines[-1]!r} disagrees with the family lines"
    failing = gaps > 0 or any("INVALID" in line or "MISMATCH" in line for line in lines)
    expected = 1 if failing else 0
    if rc != expected:
        return f"exit code {rc}, but the output implies {expected}"
    return None

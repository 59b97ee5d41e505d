"""Forge the packaged ``full --format json`` document one leaf at a time and
count the forgeries that revalidate clean.

    python ci/docmutations.py

The document is the stdout of ``audit full --format json`` on the packaged
tables, through ``cli.main`` of this checkout's ``src``.  Each mutant changes
one leaf by a fixed rule: a bool is negated, 1 is added to an int, "x" is
appended to a string, a null becomes 0 and an empty array becomes [0].  So
every leaf is forged once, and nothing is sampled.  Each mutant is made in
place, revalidated as the audit revalidates its own output, with the
database it loaded and the document it wrote, and restored; it survives
when revalidation finds no problem.  Prints the mutants and survivors of
each section, then each survivor's path, and exits 1 when any mutant
survives or the document itself does not revalidate clean, else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

#: The repository this script belongs to; its ``src`` is imported.
CHECKOUT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(CHECKOUT / "src"))

from fano95 import cli, load_families, revalidate_document  # noqa: E402
from fano95.certificates import SURFACE_ROWS_FILENAME  # noqa: E402
from fano95.families import FAMILIES_FILENAME, packaged_data_path  # noqa: E402

#: The fixed rule: the forgery of each kind of leaf.  An array is a leaf
#: only when it is empty.
RULES = {
    bool: lambda v: not v,
    int: lambda v: v + 1,
    str: lambda v: v + "x",
    type(None): lambda v: 0,
    list: lambda v: [0],
}


def leaves(node, path: str = ""):
    """(container, key, JSON path) of each leaf below ``node``, in document order."""
    items = node.items() if type(node) is dict else enumerate(node)
    for key, value in items:
        at = f"{path}[{key}]" if type(key) is int else f"{path}.{key}" if path else key
        if type(value) in (dict, list) and value:
            yield from leaves(value, at)
        else:
            yield node, key, at


def section(path: str) -> str:
    """The section a leaf lies in: a top-level key, or ``certificates.`` and its key."""
    name = path.split("[")[0].split(".")
    return ".".join(name[:2] if name[0] == "certificates" else name[:1])


def survivors() -> tuple[dict[str, int], list[str]]:
    """The number of mutants of each section, and the path of each survivor;
    exits 1 with a line on stderr when the audit fails or its document does
    not revalidate clean."""
    families = packaged_data_path(FAMILIES_FILENAME)
    argv = ["full", "--format", "json", "--families", str(families),
            "--table", str(packaged_data_path(SURFACE_ROWS_FILENAME))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        sys.exit(f"error: the packaged audit exits {code}")
    db = load_families(families)
    # The document as the audit wrote it, and the one forged: each section of
    # a parse has the marshal bytes of the section the audit built.
    written, doc = json.loads(out.getvalue()), json.loads(out.getvalue())
    if revalidate_document(doc, db=db, written=written):
        sys.exit("error: the packaged document does not revalidate clean")
    mutants: dict[str, int] = {}
    survived = []
    for container, key, path in list(leaves(doc)):
        old = container[key]
        container[key] = RULES[type(old)](old)
        try:
            if not revalidate_document(doc, db=db, written=written):
                survived.append(path)
        finally:
            container[key] = old
        name = section(path)
        mutants[name] = mutants.get(name, 0) + 1
    return mutants, survived


def main() -> int:
    mutants, survived = survivors()
    for name, count in mutants.items():
        alive = sum(section(path) == name for path in survived)
        print(f"{name}: {alive} of {count} mutants survive")
    for path in survived:
        print(path)
    print(f"total: {len(survived)} of {sum(mutants.values())} mutants survive")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

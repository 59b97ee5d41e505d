"""Seeded fuzz over the two TSV parsers, the JSON revalidator and the JSON
emitter.

Each case mutates one line of a packaged table, replaces one value of the
``full --format json`` document, or draws a random JSON tree.  A table must
load or raise its parser's own error, and a table its loader refuses must make
the command line exit 2 with one error line; revalidation must return a tuple
of problems and raise nothing, and at least one problem when a derived value
changed; ``to_json`` must write the bytes of the stdlib's
``json.dumps(tree, sort_keys=True, indent=2)`` plus a newline.
"""

import contextlib
import io
import json
import random

import pytest

from fano95 import (
    FamilyTableError,
    SurfaceRowParseError,
    cli,
    load_families,
    load_packaged_families,
    load_surface_rows,
    revalidate_document,
    to_json,
)
from fano95.certificates import SURFACE_ROWS_FILENAME
from fano95.families import packaged_data_path

SEEDS = range(250)

#: Characters a mutation may insert: digits, separators, signs and one
#: non-ASCII digit (``int`` accepts it).
_ALPHABET = "0123456789\t,#-+/. x٣"


def _mutate_line(rng: random.Random, line: str) -> str:
    fields = line.split("\t")
    kind = rng.randrange(7)
    if kind == 0 and line:  # replace one character
        i = rng.randrange(len(line))
        return line[:i] + rng.choice(_ALPHABET) + line[i + 1:]
    if kind == 1 and line:  # delete one character
        i = rng.randrange(len(line))
        return line[:i] + line[i + 1:]
    if kind == 2:  # insert one character
        i = rng.randrange(len(line) + 1)
        return line[:i] + rng.choice(_ALPHABET) + line[i:]
    if kind == 3:  # drop a field
        del fields[rng.randrange(len(fields))]
    elif kind == 4:  # duplicate a field
        fields.insert(rng.randrange(len(fields) + 1), rng.choice(fields))
    elif kind == 5:  # replace a field by a random integer
        fields[rng.randrange(len(fields))] = str(rng.randint(-3, 400))
    else:  # swap two fields
        i, j = rng.randrange(len(fields)), rng.randrange(len(fields))
        fields[i], fields[j] = fields[j], fields[i]
    return "\t".join(fields)


def _mutated_table(filename: str, seed: int) -> io.StringIO:
    rng = random.Random(seed)
    lines = packaged_data_path(filename).read_text(encoding="utf-8").split("\n")
    i = rng.randrange(len(lines))
    lines[i] = _mutate_line(rng, lines[i])
    return io.StringIO("\n".join(lines))


#: Each table's file name, loader, the error its loader raises, the command
#: that loads it from the path given last, and the name its errors print.
_TABLES = {
    "families": ("families.tsv", load_families, FamilyTableError,
                 ["validate", "--families"], "families table"),
    "surface-rows": (SURFACE_ROWS_FILENAME, load_surface_rows, SurfaceRowParseError,
                     ["certify", "--table"], "surface-row table"),
}


@pytest.mark.parametrize("table", _TABLES)
def test_fuzzed_table_loads_or_raises_its_parse_error(table):
    filename, load, error, _, _ = _TABLES[table]
    for seed in SEEDS:
        try:
            load(_mutated_table(filename, seed))
        except error:
            pass
        except Exception as exc:  # any other exception is an escape
            pytest.fail(f"seed {seed}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("table", _TABLES)
def test_fuzzed_table_the_loader_refuses_is_one_input_error_line(tmp_path, capsys, table):
    # The command line catches a table error by its base, OSError or
    # ValueError; each refused table must still exit 2 with one line naming it.
    filename, load, error, command, what = _TABLES[table]
    refused = 0
    for seed in SEEDS:
        text = _mutated_table(filename, seed).getvalue()
        try:
            load(io.StringIO(text))
            continue
        except error:
            refused += 1
        path = tmp_path / f"{seed}.tsv"
        path.write_text(text, encoding="utf-8")
        code = cli.main([*command, str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (cli.EXIT_INPUT_ERROR, ""), seed
        assert err.startswith(f"error: {what} {path}: ") and err.count("\n") == 1, (seed, err)
    assert refused >= 100, refused


@pytest.fixture(scope="module")
def full_json():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["full", "--format", "json"]) == cli.EXIT_OK
    return out.getvalue()


def _paths(node, prefix=()):
    """The path to every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


#: The surface fields that are the row itself; the rest are derived from it.
_SURFACE_INPUTS = {"family", "vanishing", "fails", "method", "m"}


def _derived(shape: tuple) -> bool:
    """Whether a path shape is a derived leaf, or lies below one: families
    ``degree_cap`` and ``case``, every test-class field, the surface fields but
    the row's own, lists ``expected``, ``families`` and ``match``, and
    everything in coverage."""
    if shape[:1] == ("coverage",):
        return len(shape) > 1
    if shape[:1] == ("families",):
        return shape[2:3] in (("degree_cap",), ("case",))
    if shape[:2] == ("certificates", "test_class"):
        return len(shape) > 3
    if shape[:2] == ("certificates", "surface"):
        return len(shape) > 3 and shape[3] not in _SURFACE_INPUTS
    if shape[:1] == ("lists",):
        return shape[2:3] in (("expected",), ("families",), ("match",))
    return False


def test_fuzzed_document_revalidates_to_problems(full_json):
    # Paths are drawn per shape (list indices wildcarded), so each of the
    # ~100 kinds of field is as likely as any other, however many it has.
    # Every mutation must give a tuple and raise nothing; one that changes a
    # derived leaf's type or value must give at least one problem.  Given the
    # packaged database the audit loaded, and with it the document the audit
    # wrote, revalidation must give the same problems, so reusing them can
    # hide none; 10**5000 is too long to print.
    by_shape: dict[tuple, list[tuple]] = {}
    for path in _paths(json.loads(full_json)):
        shape = tuple("*" if isinstance(k, int) else k for k in path)
        by_shape.setdefault(shape, []).append(path)
    shapes = sorted(by_shape, key=repr)
    replacements = (None, True, False, 7, 10**5000, 1.0, 1.5, "x", [], {})
    db, written = load_packaged_families(), json.loads(full_json)
    derived_changes = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        shape = rng.choice(shapes)
        *parents, last = rng.choice(by_shape[shape])
        doc = json.loads(full_json)
        target = doc
        for key in parents:
            target = target[key]
        old, new = target[last], rng.choice(replacements)
        target[last] = new
        try:
            problems = revalidate_document(doc)
            reused = revalidate_document(doc, db=db)
            held = revalidate_document(doc, db=db, written=written)
        except Exception as exc:  # any exception is an escape
            pytest.fail(f"seed {seed}: {type(exc).__name__}: {exc}")
        assert isinstance(problems, tuple)
        assert reused == held == problems, f"seed {seed}: {shape}"
        if _derived(shape) and (type(old) is not type(new) or old != new):
            derived_changes += 1
            assert problems, f"seed {seed}: {shape} {old!r} -> {new!r} revalidates clean"
    assert derived_changes >= 50, derived_changes


#: Code points a fuzzed string draws from: ASCII with its control characters,
#: the BMP with lone surrogates, and the astral planes.
_CODE_POINT_RANGES = ((0, 0x7F), (0x80, 0xFFFF), (0xD800, 0xDFFF), (0x10000, 0x10FFFF))


def _text(rng: random.Random) -> str:
    return "".join(
        chr(rng.randint(*rng.choice(_CODE_POINT_RANGES))) for _ in range(rng.randrange(6))
    )


def _json_tree(rng: random.Random, depth: int = 0):
    """A random value of the JSON model, a container at the root; containers
    may be empty at any depth."""
    kind = rng.randrange(4 if depth == 0 else 0, 8 if depth < 4 else 4)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice((rng.randint(-9, 9), rng.randint(-(2**70), 2**70)))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.randint(0, 2**64)
    items = [_json_tree(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {_text(rng): item for item in items}


def test_fuzzed_tree_encodes_to_the_stdlib_bytes():
    for seed in SEEDS:
        tree = _json_tree(random.Random(seed))
        assert to_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n", seed

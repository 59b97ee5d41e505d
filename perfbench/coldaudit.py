"""Traced ``audit full --format json`` in a fresh interpreter.

Usage: ``python coldaudit.py [--import-only]`` with ``src`` on PYTHONPATH.

Times ``import fano95.cli`` and counts the modules it adds, then runs the
stages of ``cmd_full`` under spans on the packaged tables.  The audit's
output goes to stdout and its exit code is the process's, as with the
``audit`` script; one JSON line on stderr carries the spans, the module
count and the per-layer counts.  ``--import-only`` stops after the import.
"""

import sys

import stages

tracer = stages.Tracer()
with tracer.span(stages.ROOT):
    before = len(sys.modules)
    with tracer.span("cli.import"):
        import fano95.cli
    import_modules = len(sys.modules) - before
    if "--import-only" in sys.argv[1:]:
        output, code, counts = "", 0, {}
    else:
        output, code, counts = stages.traced_full(tracer, "json")
        sys.stdout.write(output)
        sys.stdout.flush()

# Imported only now, so that its import cost falls inside ``cli.import``.
import json  # noqa: E402

sys.stderr.write(json.dumps(
    {"spans": tracer.spans, "import_modules": import_modules, "counts": counts}
) + "\n")
sys.exit(code)

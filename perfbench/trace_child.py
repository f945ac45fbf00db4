"""Traced stand-in for ``python -m entcost.cli``.

Usage: python3 trace_child.py SPANS_PATH CLI_ARGS...

Times the import of ``entcost.cli`` as an "import" span, wraps entcost's
public functions and ``subprocess.run``, runs ``entcost.cli.main`` on the
remaining arguments, writes the spans to SPANS_PATH as JSON and exits with
the command's exit code.
"""

import json
import sys

import tracer as trace


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = trace.Tracer()
    t.item = argv[0]
    span = t.open("import", "entcost.cli")
    from entcost import cli
    t.close(span)
    t.install(wrap_subprocess=True)
    try:
        code = cli.main(argv)
    finally:
        t.uninstall()
    with open(spans_path, "w") as fh:
        json.dump(trace.to_records(t.spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

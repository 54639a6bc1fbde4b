#!/usr/bin/env python3
"""The mifo.run_artifact.v1 schema, declared once for scripts/check.sh.

Library use (scripts/ on PYTHONPATH):

    from artifact_schema import load
    a = load(path, "chaos_run")  # parsed artifact; schema and bench asserted

Command use:

    python3 scripts/artifact_schema.py strip-timing SRC DST

writes artifact SRC to DST without its wall-clock "timing" section (sorted
keys, indent 1), so two same-seed runs can be compared byte for byte.
Stdlib only.
"""
import json
import sys

SCHEMA = "mifo.run_artifact.v1"


def load(path, bench):
    """Parses the artifact at `path`; asserts its schema and bench name."""
    with open(path) as f:
        a = json.load(f)
    assert a["schema"] == SCHEMA, a.get("schema")
    assert a["bench"] == bench, a.get("bench")
    return a


def strip_timing(src, dst):
    with open(src) as f:
        a = json.load(f)
    del a["timing"]
    with open(dst, "w") as f:
        json.dump(a, f, indent=1, sort_keys=True)


def main(argv):
    if len(argv) == 4 and argv[1] == "strip-timing":
        strip_timing(argv[2], argv[3])
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

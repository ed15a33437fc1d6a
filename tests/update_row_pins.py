"""Re-record chosen keys of ``row_pins.json`` and check that no other key moved.

Run from the repository root as ``PYTHONPATH=src python tests/update_row_pins.py
KEY [KEY ...]``.  Each pinned command line is run again; the named keys take
their new values, and the script fails, writing nothing, if any other key of
any row differs from its pin.  Values are pinned as ``float.hex`` strings.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

from pdcqkd.cli import main

PINS = Path(__file__).with_name("row_pins.json")


def pinned(row: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}


def update(keys: set[str]) -> None:
    pins = json.loads(PINS.read_text())
    moved = {key: 0 for key in keys}
    for argv, old in pins.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv.split()) == 0, argv
        (row,) = json.loads(out.getvalue())["rows"]
        new = pinned(row)
        others = {k: v for k, v in new.items() if k not in keys}
        if others != {k: v for k, v in old.items() if k not in keys}:
            sys.exit(f"{argv}: a key outside {sorted(keys)} changed")
        for key in keys:
            # a key that is new to a row, or gone from it, moved there too
            moved[key] += key not in old or key not in new or new[key] != old[key]
        pins[argv] = new
    lines = (f" {json.dumps(a)}: {json.dumps(row, sort_keys=True)}" for a, row in pins.items())
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(pins)} rows; changed rows by key: {moved}")


if __name__ == "__main__":
    update(set(sys.argv[1:]))

"""Regenerate the CLI golden files: python3 tests/make_goldens.py.

Run from the repository root; writes into tests/golden/. Every golden
invocation pins its seed and passes --no-timestamp so the outputs are
byte-stable.

``python3 tests/make_goldens.py --diff`` regenerates the goldens into a
temporary directory and writes nothing. For each golden that differs it
prints every changed value: its JSON path or CSV cell, before -> after,
and |delta| for a number. It exits 1 if any golden differs.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_RUNS = {
    "state_pi.json": ["state", "--phi12", "3.141592653589793",
                      "--out", "state_pi.json", "--seed", "1", "--no-timestamp"],
    "qfi_grid5.csv": ["qfi", "--grid", "5",
                      "--out", "qfi_grid5.csv", "--seed", "1", "--no-timestamp"],
    "optimize_pauli_pi.json": ["optimize", "--phi12", "3.141592653589793",
                               "--kind", "pauli", "--out", "optimize_pauli_pi.json",
                               "--seed", "1", "--no-timestamp"],
    "sense_pi": ["sense", "--phi12", "3.141592653589793", "--observable", "ZY",
                 "--bins", "6", "--replicates", "2000",
                 "--out", "sense_pi", "--seed", "1", "--no-timestamp"],
    "tomo_pi.csv": ["tomo", "simulate", "--phi12", "3.141592653589793",
                    "--out", "tomo_pi.csv", "--seed", "1", "--no-timestamp"],
    "fringe_exact": ["fringe", "--steps", "24", "--exact",
                     "--out", "fringe_exact", "--seed", "1", "--no-timestamp"],
}

# reconstruct consumes the simulate golden, so it runs second
RECONSTRUCT_RUN = ["tomo", "reconstruct", "--in", "tomo_pi.csv",
                   "--phi12", "3.141592653589793", "--mc", "5",
                   "--out", "reconstruct_pi.json", "--seed", "1",
                   "--no-timestamp"]


def run_all(workdir: Path) -> list:
    from wgstate.cli import main

    produced = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in GOLDEN_RUNS.values():
            rc = main(argv)
            assert rc == 0, f"golden run failed ({rc}): {argv}"
        rc = main(RECONSTRUCT_RUN)
        assert rc == 0, f"golden run failed ({rc}): {RECONSTRUCT_RUN}"
        produced = sorted(p.name for p in workdir.iterdir())
    finally:
        os.chdir(cwd)
    return produced


class _Missing:
    def __repr__(self):
        return "(absent)"


_MISSING = _Missing()


def _change(where, before, after):
    line = f"{where}: {before!r} -> {after!r}"
    numbers = [v for v in (before, after)
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if len(numbers) == 2:
        line += f"  |delta| {abs(after - before):.3g}"
    return line


def _json_changes(before, after, path="$"):
    """One line per leaf of two JSON values whose text differs."""
    if isinstance(before, dict) and isinstance(after, dict):
        for key in sorted(before.keys() | after.keys()):
            where = f".{key}" if key.isidentifier() else f"[{json.dumps(key)}]"
            yield from _json_changes(before.get(key, _MISSING), after.get(key, _MISSING),
                                     path + where)
    elif isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        for i, pair in enumerate(zip(before, after)):
            yield from _json_changes(*pair, f"{path}[{i}]")
    elif type(before) is not type(after) or repr(before) != repr(after):
        yield _change(path, before, after)


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _csv_changes(before, after):
    """One line per cell of two CSV texts that differs, named
    [row].column with the columns of the first header."""
    old, new = list(csv.reader(before.splitlines())), list(csv.reader(after.splitlines()))
    header = old[0] if old else []
    for r in range(max(len(old), len(new))):
        a = old[r] if r < len(old) else []
        b = new[r] if r < len(new) else []
        for c in range(max(len(a), len(b))):
            x = a[c] if c < len(a) else _MISSING
            y = b[c] if c < len(b) else _MISSING
            if x != y:
                column = header[c] if c < len(header) else c
                yield _change(f"[{r}].{column}", *(v if v is _MISSING else _number(v)
                                                   for v in (x, y)))


def changes(name: str, before: str, after: str) -> list:
    """Every changed value between two texts of the golden ``name``."""
    if name.endswith(".json"):
        return list(_json_changes(json.loads(before), json.loads(after)))
    return list(_csv_changes(before, after))


def diff_goldens() -> int:
    """Regenerate the goldens into a temporary directory, print how each
    one that differs from tests/golden/ differs, and return their number."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            names = set(run_all(workdir))
        differing = 0
        for name in sorted(names | {p.name for p in GOLDEN_DIR.iterdir()}):
            old, new = GOLDEN_DIR / name, workdir / name
            if name not in names or not old.exists():
                print(f"{name}: {'no longer produced' if old.exists() else 'new golden'}")
                differing += 1
            elif old.read_bytes() != new.read_bytes():
                print(f"{name}:")
                lines = changes(name, old.read_text(), new.read_text())
                for line in lines or ["the bytes differ, no value does"]:
                    print(f"  {line}")
                differing += 1
    print(f"{differing} of {len(names)} goldens differ")
    return differing


def main_script(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate the CLI golden files.")
    parser.add_argument("--diff", action="store_true",
                        help="print how regenerated goldens differ; write nothing")
    if parser.parse_args(argv).diff:
        return 1 if diff_goldens() else 0
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        names = run_all(workdir)
        for name in names:
            shutil.copyfile(workdir / name, GOLDEN_DIR / name)
        print(f"wrote {len(names)} golden files to {GOLDEN_DIR}")


if __name__ == "__main__":
    sys.exit(main_script())

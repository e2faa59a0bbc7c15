"""Output check for one CLI run.

Result columns are read by column name, so added columns and sidecar
fields do not break the check.  Values are compared as exact float reprs:
small files (sweep.csv, summary.csv) value by value under their key
columns, the large estimate and trajectory CSVs as a sha256 digest of
their `value` column.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# file -> (key columns, value columns)
KEYED = {
    "sweep.csv": (("N", "estimator", "param"), ("mse", "stderr", "excluded_count")),
    "summary.csv": (
        ("replicate", "estimator_id", "param"),
        ("final", "tail_mean", "excluded", "blowup_step"),
    ),
}
# file pattern -> value columns checked through a digest
DIGESTED = {"estimates_r*.csv": ("value",), "trajectory_r*.csv": ("value",)}


def _canonical(text: str, where: str, problems: list) -> str:
    try:
        return str(int(text))
    except ValueError:
        pass
    try:
        v = float(text)
    except ValueError:
        problems.append(f"{where}: not a number: {text!r}")
        return text
    if not math.isfinite(v):
        problems.append(f"{where}: non-finite value {text}")
    return repr(v)


def _rows(path: Path, columns):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise KeyError(f"{path.name}: missing columns {missing}")
        yield from reader


def extract(out_dir: Path) -> tuple[dict, list]:
    """Checked columns of every result file in `out_dir`, and any problems.

    A problem is a missing column, a value that is not a number, or a value
    that is not finite.
    """
    out_dir = Path(out_dir)
    files, problems = {}, []
    for name, (keys, cols) in KEYED.items():
        path = out_dir / name
        if not path.exists():
            continue
        table = {}
        try:
            for row in _rows(path, keys + cols):
                key = "|".join(row[k] for k in keys)
                table[key] = {c: _canonical(row[c], f"{name}[{key}].{c}", problems) for c in cols}
        except KeyError as e:
            problems.append(str(e))
        files[name] = table
    for pattern, cols in DIGESTED.items():
        for path in sorted(out_dir.glob(pattern)):
            digests = {}
            try:
                for col in cols:
                    h, n = hashlib.sha256(), 0
                    for row in _rows(path, (col,)):
                        h.update(_canonical(row[col], f"{path.name}.{col}", problems).encode())
                        h.update(b"\n")
                        n += 1
                    digests[col] = {"rows": n, "sha256": h.hexdigest()}
            except KeyError as e:
                problems.append(str(e))
            files[path.name] = digests
    if not files:
        problems.append(f"no result files in {out_dir.name}")
    return files, problems


def compare(reference: dict, got: dict) -> list:
    """Every value the reference holds must be present in `got`, unchanged."""
    problems = []
    for name, table in reference.items():
        if name not in got:
            problems.append(f"{name}: missing")
            continue
        for key, cols in table.items():
            row = got[name].get(key)
            if row is None:
                problems.append(f"{name}[{key}]: missing")
                continue
            for col, want in cols.items():
                if row.get(col) != want:
                    problems.append(f"{name}[{key}].{col}: {row.get(col)} != reference {want}")
    return problems


def file_hashes(out_dir: Path) -> dict:
    """sha256 of every file in the output directory, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file()
    }

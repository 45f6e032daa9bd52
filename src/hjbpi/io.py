"""Deterministic CSV / summary writers for run artifacts.

Floats are written with ``repr``, the shortest round-tripping form, and
rows in a fixed order, so identical runs produce byte-identical files.
Every CSV table but a solution's goes through ``write_table``, which reads
no run record.  Nothing here records wall-clock state.
"""

from __future__ import annotations

import csv
import json
import math


def fmt(value):
    """None is the empty cell; an int (a bool too) or str is its ``str``, else float ``repr``."""
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def write_solution_csv(solution, path):
    """One row per space-time point: t, index, coordinates, value, control.

    Written level by level with the bytes ``csv.writer`` would produce for
    these rows (``\\r\\n`` line ends; no field needs quoting), holding one
    level's text at a time.  A level's row pieces are interleaved into one
    list by slice assignment and joined once: the time, the fixed
    ``"index,x,"`` prefix of each point, the values' ``repr`` (a list's
    ``repr`` is its items' ``repr`` joined by ``", "``), and a lookup of
    the ``",control\\r\\n"`` endings by control index.
    """
    grid = solution.grid
    n = grid.npoints
    header = (["t", "linear_index"] + [f"x_{i}" for i in range(grid.dim)]
              + ["value", "control_index"])
    lo, hi = int(solution.policy_slices.min()), int(solution.policy_slices.max())
    # a negative list index counts from the end, so the negative controls go last
    endings = [f",{c}\r\n" for c in (*range(hi + 1), *range(lo, 0))]
    parts = [None] * (4 * n)
    parts[1::4] = [",".join([str(idx)] + [repr(c) for c in row]) + ","
                   for idx, row in enumerate(grid.coordinates().tolist())]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k, row in enumerate(solution.values):
            parts[0::4] = [fmt(solution.params.time(k)) + ","] * n
            parts[2::4] = repr(row.tolist())[1:-1].split(", ")
            parts[3::4] = map(endings.__getitem__, solution.policy_slices[k].tolist())
            fh.write("".join(parts))


def write_table(path, header, rows):
    """A CSV table: the ``header`` row, then ``rows`` with every cell through ``fmt``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(cell) for cell in row] for row in rows)


def write_gnuplot_dat(pairs, path, header):
    """Two-column whitespace data file, '#'-prefixed header line."""
    lines = [f"# {header}", *(f"{fmt(a)} {fmt(b)}" for a, b in pairs)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, items):
    """Human-readable and machine-parsable 'key: value' lines, fixed order."""
    lines = [f"{key}: {fmt(value)}" for key, value in items]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json_summary(path, mapping):
    """Sorted JSON object; a non-finite float is written as its ``repr``."""
    with open(path, "w") as fh:
        json.dump({k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                   for k, v in mapping.items()}, fh, indent=2, sort_keys=True)
        fh.write("\n")

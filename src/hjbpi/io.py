"""Deterministic CSV / summary writers for run artifacts.

Floats are written with ``repr``, the shortest round-tripping form, and
every writer emits rows in a fixed order, so identical runs produce
byte-identical files.  Nothing here records wall-clock state.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np


def fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def write_solution_csv(solution, path):
    """One row per space-time point: t, index, coordinates, value, control.

    Written level by level with the bytes ``csv.writer`` would produce for
    these rows (``\\r\\n`` line ends; no field needs quoting), holding one
    level's text at a time.
    """
    grid = solution.grid
    header = (["t", "linear_index"] + [f"x_{i}" for i in range(grid.dim)]
              + ["value", "control_index"])
    points = [",".join([str(idx)] + [repr(c) for c in row])
              for idx, row in enumerate(grid.coordinates().tolist())]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k, row in enumerate(solution.values):
            t = fmt(solution.params.time(k))
            controls = map(str, solution.policy_slices[k].tolist())
            values = map(repr, row.tolist())
            fh.write("".join(f"{t},{point},{value},{control}\r\n"
                             for point, value, control in zip(points, values, controls)))


def write_pi_csv(run, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "sup_error", "l2_error", "policy_l2",
                         "monotonicity_worst"])
        for n in range(run.iterations_used):
            writer.writerow([n, fmt(run.errors_to_fixed_point[n]),
                             fmt(run.errors_l2[n]), fmt(run.policy_l2[n]),
                             fmt(run.monotonicity_worst[n])])


def write_generalized_csv(run, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "sup_error", "l2_error", "policy_l2",
                         "monotonicity_worst", "legendre_resolution"])
        for n in range(run.iterations_used):
            writer.writerow([n, fmt(run.errors_to_fixed_point[n]),
                             fmt(run.errors_l2[n]), fmt(run.advection_l2[n]),
                             fmt(run.monotonicity_worst[n]),
                             fmt(run.legendre_resolution)])


def write_rate_study_csv(study, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "tau", "sup_error", "l2_error"])
        for h, tau, err, l2 in zip(study.h_values, study.tau_values,
                                   study.errors, study.l2_errors):
            writer.writerow([fmt(h), fmt(tau), fmt(err), fmt(l2)])


def write_tau_study_csv(study, path):
    """Rows per step size; sup_error is the distance to the next refinement
    (the finest row compares against the extrapolated reference)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "tau", "sup_error", "l2_error"])
        sols = study.solutions
        for i, tau in enumerate(study.tau_values):
            if i < len(study.distances):
                ref = sols[i + 1].values[0]
            else:
                ref = study.extrapolated
            diff = sols[i].values[0] - ref
            writer.writerow([fmt(study.h), fmt(tau),
                             fmt(float(np.max(np.abs(diff)))),
                             fmt(float(np.sqrt(np.sum(diff ** 2))))])


def write_probes_csv(table, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "point", "skipped", "control", "oracle_control"])
        for row in table.rows:
            writer.writerow([fmt(row.h), fmt(row.point), int(row.skipped),
                             "" if row.control is None else fmt(row.control[0]),
                             "" if row.oracle_control is None else fmt(row.oracle_control[0])])


def write_gnuplot_dat(pairs, path, header):
    """Two-column whitespace data file, '#'-prefixed header line."""
    lines = [f"# {header}"]
    for a, b in pairs:
        lines.append(f"{fmt(a)} {fmt(b)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, items):
    """Human-readable and machine-parsable 'key: value' lines, fixed order."""
    lines = [f"{key}: {fmt(value)}" for key, value in items]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json_summary(path, mapping):
    def encode(v):
        if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
            return repr(v)
        return v

    with open(path, "w") as fh:
        json.dump({k: encode(v) for k, v in mapping.items()}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")

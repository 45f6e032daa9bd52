"""Batch front-end: config files in, CSV artifacts and summaries out.

Config files are flat ``key: value`` text (``#`` starts a comment).  The
documented keys are listed in ``KNOWN_KEYS`` below and in the README.
Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
blowup, 4 invariant (monotonicity) violation, 1 unexpected internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import io as artifact_io
from .analysis import (
    oracle_for,
    policy_pointwise_convergence_probe,
    run_h_rate_study,
    run_tau_refinement_study,
)
from .benchmarks import Benchmark, get_benchmark, lq_feedback_policies
from .errors import (
    CFLValidationError,
    ConfigParseError,
    ConfigurationError,
    HJBPIError,
    MonotonicityError,
    NumericalBlowupError,
)
from .legendre import ConvexHamiltonian, generalized_pi, legendre_scheme
from .pi import PIConfig, build_initial_policies, fit_geometric_rate, run_policy_iteration
from .problem import ControlProblem, ControlSet, discrete_sup_norms, validate_f_bound
from .scheme import SchemeParams, solve_hjb_direct

MODES = ("solve", "pi", "h-study", "tau-study", "legendre-pi", "probes")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_INVARIANT = 4

# Named forms an inline problem can be assembled from.
DYNAMICS_FORMS = {
    "control": (lambda t, x, a: a[0], "f = a"),
    "unit": (lambda t, x, a: np.ones_like(x), "f = 1"),
    "zero": (lambda t, x, a: np.zeros_like(x), "f = 0"),
}
RUNNING_COST_FORMS = {
    "half-square": (lambda t, x, a: 0.5 * float(np.sum(a * a)), "c = |a|^2/2"),
    "one": (lambda t, x, a: 1.0, "c = 1"),
    "zero": (lambda t, x, a: 0.0, "c = 0"),
}
TERMINAL_FORMS = {
    "cos": (lambda x: np.cos(x[..., 0]), "q = cos(x)"),
    "sin": (lambda x: np.sin(x[..., 0]), "q = sin(x)"),
    "zero": (lambda x: np.zeros(x.shape[:-1]), "q = 0"),
}
LEGENDRE_FORMS = ("half-square",)


@dataclass(frozen=True)
class InlineProblemSpec:
    dimension: int = 1
    box: tuple = (-1.0, 1.0)
    periodic: bool = True
    dynamics: str = "control"
    running_cost: str = "zero"
    terminal_cost: str = "zero"
    control_min: float = -1.0
    control_max: float = 1.0
    control_samples: int = 21
    f_sup_bound: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    mode: Optional[str] = None
    benchmark: Optional[str] = None
    problem: Optional[InlineProblemSpec] = None
    h: float = 0.1
    tau: Optional[float] = None
    N: Optional[float] = None
    T: float = 1.0
    output_dir: str = "out"
    pi_max_iterations: int = 100
    pi_stop_tolerance: float = 1e-10
    pi_record_every: int = 10
    pi_initial_policy: str = "benchmark-default"
    study_h_values: Optional[tuple] = None
    study_tau_values: Optional[tuple] = None
    legendre_M: float = 2.0
    legendre_hamiltonian: str = "half-square"
    probe_points: Optional[tuple] = None
    probe_h_values: Optional[tuple] = None


_SCALAR_KEYS = {
    "mode": ("mode", str),
    "benchmark": ("benchmark", str),
    "output_dir": ("output_dir", str),
    "scheme.h": ("h", float),
    "scheme.tau": ("tau", float),
    "scheme.N": ("N", float),
    "scheme.T": ("T", float),
    "pi.max_iterations": ("pi_max_iterations", int),
    "pi.stop_tolerance": ("pi_stop_tolerance", float),
    "pi.record_every": ("pi_record_every", int),
    "pi.initial_policy": ("pi_initial_policy", str),
    "legendre.M": ("legendre_M", float),
    "legendre.hamiltonian": ("legendre_hamiltonian", str),
}
_LIST_KEYS = {
    "study.h_values": "study_h_values",
    "study.tau_values": "study_tau_values",
    "probes.points": "probe_points",
    "probes.h_values": "probe_h_values",
}
_PROBLEM_KEYS = {
    "problem.dimension": ("dimension", int),
    "problem.periodic": ("periodic", None),
    "problem.dynamics": ("dynamics", str),
    "problem.running_cost": ("running_cost", str),
    "problem.terminal_cost": ("terminal_cost", str),
    "problem.control_min": ("control_min", float),
    "problem.control_max": ("control_max", float),
    "problem.control_samples": ("control_samples", int),
    "problem.f_sup_bound": ("f_sup_bound", float),
}
_POSITIVE_KEYS = ("scheme.h", "scheme.tau", "scheme.N", "scheme.T", "legendre.M")
KNOWN_KEYS = sorted(list(_SCALAR_KEYS) + list(_LIST_KEYS) + list(_PROBLEM_KEYS)
                    + ["problem.box"])


def _parse_bool(raw, line_no, key):
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigParseError(f"line {line_no}: key {key!r} expects a boolean, got {raw!r}",
                           line_no=line_no, key=key)


def parse_config(text):
    """Parse the flat key-value schema into a fully resolved config.

    Unknown keys, duplicate keys, type errors, and scheme numbers (h, tau,
    N, T) that are not finite and positive are parse errors carrying the
    offending line; the resolved (h, tau, N) must satisfy the CFL
    constraint or a validation error is raised before anything runs.
    """
    values = {}
    problem_values = {}
    lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigParseError(f"line {line_no}: expected 'key: value', got {raw!r}",
                                   line_no=line_no)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key in lines:
            raise ConfigParseError(f"line {line_no}: duplicate key {key!r}",
                                   line_no=line_no, key=key)
        lines[key] = line_no
        try:
            if key in _SCALAR_KEYS:
                attr, cast = _SCALAR_KEYS[key]
                values[attr] = cast(value)
            elif key in _LIST_KEYS:
                parts = [p for p in value.split(",") if p.strip()]
                values[_LIST_KEYS[key]] = tuple(float(p) for p in parts)
            elif key == "problem.box":
                lo, hi = (float(p) for p in value.split(","))
                problem_values["box"] = (lo, hi)
            elif key in _PROBLEM_KEYS:
                attr, cast = _PROBLEM_KEYS[key]
                if cast is None:
                    problem_values[attr] = _parse_bool(value, line_no, key)
                else:
                    problem_values[attr] = cast(value)
            else:
                raise ConfigParseError(f"line {line_no}: unknown key {key!r}",
                                       line_no=line_no, key=key)
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(
                f"line {line_no}: bad value for {key!r}: {exc}",
                line_no=line_no, key=key) from None

    if problem_values:
        values["problem"] = InlineProblemSpec(**problem_values)
    config = ExperimentConfig(**values)
    try:
        validate_config(config)
    except ConfigParseError as exc:
        # the defaults are in range, so the rejected entry has a line here
        line_no = lines[exc.key]
        raise ConfigParseError(f"line {line_no}: {exc}", line_no=line_no,
                               key=exc.key) from None
    return config


def validate_config(config):
    """Reject a config, from a file or built in code, before anything runs.

    Scheme numbers and ``legendre.M`` that are not finite and > 0, and
    non-finite control bounds, raise ``ConfigParseError`` naming the key.
    The CFL check builds the grid and scheme parameters the run itself
    builds, so the snapped spacing, the dimension and legendre-pi's
    viscosity N = m2/2 are the ones checked.  An inline problem's callbacks
    are sampled at t = 0 (no named form reads t) before any output exists.
    """
    for key in _POSITIVE_KEYS:
        value = getattr(config, _SCALAR_KEYS[key][0])
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ConfigParseError(f"{key!r} must be a finite number > 0, got {value!r}",
                                   key=key)
    if config.mode is not None and config.mode not in MODES:
        raise ConfigurationError(f"unknown mode {config.mode!r}; modes: {MODES}")
    if (config.benchmark is None) == (config.problem is None):
        raise ConfigurationError("exactly one of 'benchmark' or 'problem.*' is required")
    if config.problem is not None:
        spec = config.problem
        for key in ("problem.control_min", "problem.control_max"):
            value = getattr(spec, _PROBLEM_KEYS[key][0])
            if not math.isfinite(value):
                raise ConfigParseError(f"{key!r} must be finite, got {value!r}", key=key)
        if spec.dynamics not in DYNAMICS_FORMS:
            raise ConfigurationError(
                f"unknown dynamics form {spec.dynamics!r}; forms: {sorted(DYNAMICS_FORMS)}")
        if spec.running_cost not in RUNNING_COST_FORMS:
            raise ConfigurationError(
                f"unknown running cost form {spec.running_cost!r}")
        if spec.terminal_cost not in TERMINAL_FORMS:
            raise ConfigurationError(
                f"unknown terminal cost form {spec.terminal_cost!r}")
        if spec.dimension != 1:
            raise ConfigurationError("inline problems are one-dimensional")
    if config.legendre_hamiltonian not in LEGENDRE_FORMS:
        raise ConfigurationError(
            f"unknown Hamiltonian form {config.legendre_hamiltonian!r}")
    benchmark = _resolve_benchmark(config)
    grid = benchmark.make_grid(config.h)
    if config.problem is not None:
        validate_f_bound(benchmark.problem, grid, [0.0])
        discrete_sup_norms(benchmark.problem, grid, [0.0])
    if config.mode == "legendre-pi":
        legendre_scheme(_legendre_hamiltonian(config.legendre_hamiltonian, grid.dim),
                        config.legendre_M, grid, config.T, config.tau)
    else:
        _make_params(config, grid, benchmark.problem)


def serialize_config(config):
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    lines = []

    def emit(key, value):
        if value is None:
            return
        if isinstance(value, tuple):
            lines.append(f"{key}: {', '.join(artifact_io.fmt(v) for v in value)}")
        elif isinstance(value, bool):
            lines.append(f"{key}: {str(value).lower()}")
        else:
            lines.append(f"{key}: {artifact_io.fmt(value)}")

    emit("mode", config.mode)
    emit("benchmark", config.benchmark)
    if config.problem is not None:
        spec = config.problem
        emit("problem.dimension", spec.dimension)
        lines.append(f"problem.box: {artifact_io.fmt(spec.box[0])}, "
                     f"{artifact_io.fmt(spec.box[1])}")
        emit("problem.periodic", spec.periodic)
        emit("problem.dynamics", spec.dynamics)
        emit("problem.running_cost", spec.running_cost)
        emit("problem.terminal_cost", spec.terminal_cost)
        emit("problem.control_min", spec.control_min)
        emit("problem.control_max", spec.control_max)
        emit("problem.control_samples", spec.control_samples)
        emit("problem.f_sup_bound", spec.f_sup_bound)
    emit("scheme.h", config.h)
    emit("scheme.tau", config.tau)
    emit("scheme.N", config.N)
    emit("scheme.T", config.T)
    emit("output_dir", config.output_dir)
    emit("pi.max_iterations", config.pi_max_iterations)
    emit("pi.stop_tolerance", config.pi_stop_tolerance)
    emit("pi.record_every", config.pi_record_every)
    emit("pi.initial_policy", config.pi_initial_policy)
    emit("study.h_values", config.study_h_values)
    emit("study.tau_values", config.study_tau_values)
    emit("legendre.M", config.legendre_M)
    emit("legendre.hamiltonian", config.legendre_hamiltonian)
    emit("probes.points", config.probe_points)
    emit("probes.h_values", config.probe_h_values)
    return "\n".join(lines) + "\n"


def _inline_benchmark(spec):
    problem = ControlProblem(
        dynamics=DYNAMICS_FORMS[spec.dynamics][0],
        running_cost=RUNNING_COST_FORMS[spec.running_cost][0],
        terminal_cost=TERMINAL_FORMS[spec.terminal_cost][0],
        controls=ControlSet.uniform(spec.control_min, spec.control_max,
                                    spec.control_samples),
        f_sup_bound=spec.f_sup_bound,
        time_invariant=True,  # no named form reads t
    )
    return Benchmark(name="inline", problem=problem, box=spec.box,
                     periodic=spec.periodic)


def _resolve_benchmark(config):
    if config.benchmark is not None:
        return get_benchmark(config.benchmark)
    return _inline_benchmark(config.problem)


def _make_params(config, grid, problem):
    return SchemeParams.create(grid.spacing, config.T, problem.f_sup_bound,
                               tau=config.tau, N=config.N, dim=grid.dim)


def _rate_summary(errors, burn_in=2):
    """(rho, r_squared, note) with finite-termination and stall fallbacks.

    When the sequence reaches the fixed point exactly before enough positive
    entries exist for a least-squares fit, the per-iteration ratio is
    eventually zero; that is reported as rho 0.0 with an explanatory note
    rather than pretending a fit happened.  A fitted ratio near 1 is flagged
    as stalled so non-contracting runs stand out in summaries.
    """
    try:
        fit = fit_geometric_rate(errors, burn_in)
    except ValueError:
        fit = None
    if fit is not None and math.isfinite(fit.rho):
        if fit.rho > 0.99:
            return fit.rho, fit.r_squared, "stalled"
        note = "floored" if fit.floored else "least-squares"
        return fit.rho, fit.r_squared, note
    if len(errors) and min(errors) <= 1e2 * np.finfo(float).eps * max(max(errors), 1.0):
        return 0.0, math.nan, "finite-termination"
    return math.nan, math.nan, "unavailable"


def _initial_policies(config, benchmark, grid, params):
    rule = config.pi_initial_policy
    if rule == "benchmark-default":
        rule = benchmark.initial_policy_rule
    if rule == "lq-feedback":
        return lq_feedback_policies(benchmark.problem, grid, params)
    return build_initial_policies(benchmark.problem, grid, params, rule)


def _run_solve(config, outdir):
    benchmark = _resolve_benchmark(config)
    grid = benchmark.make_grid(config.h)
    params = _make_params(config, grid, benchmark.problem)
    sol = solve_hjb_direct(benchmark.problem, grid, params)
    artifact_io.write_solution_csv(sol, os.path.join(outdir, "solution.csv"))
    artifact_io.write_summary(os.path.join(outdir, "summary.txt"), [
        ("mode", "solve"),
        ("benchmark", benchmark.name),
        ("h", grid.spacing),
        ("tau", params.tau),
        ("N", params.N),
        ("T", params.T),
        ("steps", params.steps),
        ("points", grid.npoints),
        ("q_sup", sol.q_sup),
        ("c_sup", sol.c_sup),
        ("bound_excess", sol.bound_excess()),
        ("value_min_t0", float(np.min(sol.values[0]))),
        ("value_max_t0", float(np.max(sol.values[0]))),
    ])


def _run_pi(config, outdir):
    benchmark = _resolve_benchmark(config)
    grid = benchmark.make_grid(config.h)
    params = _make_params(config, grid, benchmark.problem)
    pi_config = PIConfig(initial_policy=_initial_policies(config, benchmark, grid, params),
                         max_iterations=config.pi_max_iterations,
                         stop_tolerance=config.pi_stop_tolerance,
                         record_every=config.pi_record_every)
    run = run_policy_iteration(benchmark.problem, grid, params, pi_config)
    rho, r_squared, note = _rate_summary(run.errors_to_fixed_point)
    artifact_io.write_pi_csv(run, os.path.join(outdir, "pi_run.csv"))
    artifact_io.write_solution_csv(run.fixed_point,
                                   os.path.join(outdir, "fixed_point.csv"))
    artifact_io.write_summary(os.path.join(outdir, "summary.txt"), [
        ("mode", "pi"),
        ("benchmark", benchmark.name),
        ("h", grid.spacing),
        ("tau", params.tau),
        ("N", params.N),
        ("T", params.T),
        ("iterations_used", run.iterations_used),
        ("stop_reason", run.stop_reason),
        ("rho", rho),
        ("r_squared", r_squared),
        ("rate_fit", note),
        ("final_sup_error", float(run.errors_to_fixed_point[-1])),
        ("worst_monotonicity", run.worst_monotonicity),
        ("monotonicity_violations", run.monotonicity_violation_count),
    ])


def _run_h_study(config, outdir):
    if not config.study_h_values:
        raise ConfigurationError("h-study mode needs study.h_values")
    benchmark = _resolve_benchmark(config)
    if oracle_for(benchmark, config.T) is None:
        raise ConfigurationError(f"benchmark {benchmark.name} has no reference solution")
    study = run_h_rate_study(benchmark, list(config.study_h_values), config.T)
    artifact_io.write_rate_study_csv(study, os.path.join(outdir, "study.csv"))
    artifact_io.write_gnuplot_dat(list(zip(study.h_values, study.errors)),
                                  os.path.join(outdir, "study.dat"),
                                  "h sup_error")
    artifact_io.write_json_summary(os.path.join(outdir, "summary.json"), {
        "fitted_order": study.fitted_order,
        "fitted_constant": study.fitted_constant,
        "r_squared": study.r_squared,
        "degenerate": study.degenerate,
    })
    artifact_io.write_summary(os.path.join(outdir, "summary.txt"), [
        ("mode", "h-study"),
        ("benchmark", benchmark.name),
        ("fitted_order", study.fitted_order),
        ("fitted_constant", study.fitted_constant),
        ("r_squared", study.r_squared),
        ("degenerate", study.degenerate),
    ])


def _run_tau_study(config, outdir):
    if not config.study_tau_values:
        raise ConfigurationError("tau-study mode needs study.tau_values")
    benchmark = _resolve_benchmark(config)
    study = run_tau_refinement_study(benchmark, config.h,
                                     list(config.study_tau_values), config.T)
    artifact_io.write_tau_study_csv(study, os.path.join(outdir, "study.csv"))
    artifact_io.write_gnuplot_dat(list(zip(study.tau_values[:-1], study.distances)),
                                  os.path.join(outdir, "study.dat"),
                                  "tau distance_to_next")
    decreasing = bool(np.all(np.diff(study.distances) < 0)) if len(study.distances) > 1 else True
    artifact_io.write_summary(os.path.join(outdir, "summary.txt"), [
        ("mode", "tau-study"),
        ("benchmark", benchmark.name),
        ("h", study.h),
        ("levels", len(study.tau_values)),
        ("distances_decreasing", decreasing),
        ("finest_distance", study.distances[-1] if study.distances else math.nan),
    ])


def _legendre_hamiltonian(name, dim):
    if name == "half-square":
        return ConvexHamiltonian(
            func=lambda t, x, p: 0.5 * np.sum(np.asarray(p) ** 2, axis=-1),
            dim=dim,
            grad_p=lambda t, x, p: np.asarray(p, dtype=float),
            legendre_L=lambda t, x, mu: 0.5 * np.sum(np.asarray(mu) ** 2, axis=-1),
            time_invariant=True,
        )
    raise ConfigurationError(f"unknown Hamiltonian form {name!r}")


def _run_legendre_pi(config, outdir):
    benchmark = _resolve_benchmark(config)
    grid = benchmark.make_grid(config.h)
    H = _legendre_hamiltonian(config.legendre_hamiltonian, grid.dim)
    run = generalized_pi(H, benchmark.problem.terminal_cost, grid, config.T,
                         config.legendre_M, tau=config.tau,
                         max_iterations=config.pi_max_iterations,
                         stop_tolerance=config.pi_stop_tolerance,
                         record_every=config.pi_record_every)
    rho, r_squared, note = _rate_summary(run.errors_to_fixed_point)
    artifact_io.write_generalized_csv(run, os.path.join(outdir, "legendre_run.csv"))
    artifact_io.write_summary(os.path.join(outdir, "summary.txt"), [
        ("mode", "legendre-pi"),
        ("benchmark", benchmark.name),
        ("hamiltonian", config.legendre_hamiltonian),
        ("M", config.legendre_M),
        ("m1", run.modified.m1),
        ("m2", run.modified.m2),
        ("N", run.params.N),
        ("h", grid.spacing),
        ("tau", run.params.tau),
        ("iterations_used", run.iterations_used),
        ("stop_reason", run.stop_reason),
        ("rho", rho),
        ("r_squared", r_squared),
        ("rate_fit", note),
        ("final_sup_error", float(run.errors_to_fixed_point[-1])),
        ("worst_monotonicity", run.worst_monotonicity),
        ("gradient_sup_max", float(np.max(run.gradient_sup))),
        ("legendre_resolution", run.legendre_resolution),
    ])


def _run_probes(config, outdir):
    if not config.probe_points:
        raise ConfigurationError("probes mode needs probes.points")
    benchmark = _resolve_benchmark(config)
    h_values = config.probe_h_values or (config.h, config.h / 2.0, config.h / 4.0)
    table = policy_pointwise_convergence_probe(benchmark, list(h_values),
                                               list(config.probe_points), config.T)
    artifact_io.write_probes_csv(table, os.path.join(outdir, "probes.csv"))
    items = [("mode", "probes"), ("benchmark", benchmark.name)]
    for point in config.probe_points:
        items.append((f"stabilized_{artifact_io.fmt(point)}",
                      table.stabilized(float(point))))
    artifact_io.write_summary(os.path.join(outdir, "summary.txt"), items)


_MODE_RUNNERS = {
    "solve": _run_solve,
    "pi": _run_pi,
    "h-study": _run_h_study,
    "tau-study": _run_tau_study,
    "legendre-pi": _run_legendre_pi,
    "probes": _run_probes,
}


def run_experiment(config):
    """Dispatch one experiment; map failures to documented exit codes."""
    try:
        validate_config(config)
        if config.mode is None:
            raise ConfigurationError("no mode given (config key 'mode' or subcommand)")
        outdir = config.output_dir
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "config.txt"), "w") as fh:
            fh.write(serialize_config(config))
        _MODE_RUNNERS[config.mode](config, outdir)
        return EXIT_OK
    except (ConfigParseError, ConfigurationError, CFLValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalBlowupError as exc:
        print(f"numerical blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except MonotonicityError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except HJBPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # never crash with a traceback
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hjbpi",
        description="Monotone finite-difference solver and policy iteration runner")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run in {mode} mode")
        p.add_argument("--config", required=True, help="path to a key: value config file")
        p.add_argument("--output", help="override output_dir")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
        config = parse_config(text)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigParseError, ConfigurationError, CFLValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    overrides = {"mode": args.mode}
    if args.output is not None:
        overrides["output_dir"] = args.output
    config = replace(config, **overrides)
    return run_experiment(config)


if __name__ == "__main__":
    sys.exit(main())

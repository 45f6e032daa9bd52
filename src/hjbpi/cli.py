"""Batch front-end: config files in, CSV artifacts and summaries out.

Config files are flat ``key: value`` text (``#`` starts a comment).  The
documented keys are the rows of ``_KEYS`` below and of the README table.
Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
blowup, 4 invariant (monotonicity) violation, 1 unexpected internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import io as artifact_io
from .analysis import (
    RATE_STUDY_LEVELS,
    TAU_STUDY_LEVELS,
    check_refinement,
    policy_pointwise_convergence_probe,
    run_h_rate_study,
    run_tau_refinement_study,
    spacing_params,
)
from .benchmarks import BENCHMARK_NAMES, Benchmark, get_benchmark, lq_feedback_policies
from .errors import (
    CFLValidationError,
    ConfigParseError,
    ConfigurationError,
    HJBPIError,
    MonotonicityError,
    NumericalBlowupError,
)
from .legendre import ConvexHamiltonian, generalized_pi, legendre_scheme
from .pi import (
    FIT_MIN_ENTRIES,
    INITIAL_POLICY_RULES,
    PIConfig,
    build_initial_policies,
    fit_geometric_rate,
    run_policy_iteration,
)
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
LEGENDRE_FORMS = {
    "half-square": (lambda dim: ConvexHamiltonian(
        func=lambda t, x, p: 0.5 * np.sum(np.asarray(p) ** 2, axis=-1),
        dim=dim,
        grad_p=lambda t, x, p: np.asarray(p, dtype=float),
        legendre_L=lambda t, x, mu: 0.5 * np.sum(np.asarray(mu) ** 2, axis=-1),
        time_invariant=True,
    ), "H = |p|^2/2"),
}
INITIAL_POLICIES = ("benchmark-default", "lq-feedback", *INITIAL_POLICY_RULES)


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


def _choice(kind, names):
    """A cast that accepts only ``names``; ``validate_config`` reruns it."""
    def cast(value):
        if value not in names:
            raise ValueError(f"unknown {kind} {value!r}; choose from {', '.join(names)}")
        return value
    cast.names = names
    return cast


def _floats(value):
    return tuple(float(p) for p in value.split(",") if p.strip())


def _pair(value):
    lo, hi = (float(p) for p in value.split(","))
    return lo, hi


def _bool(value):
    if value.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value.lower() in ("true", "yes", "1")


# The config schema: key -> (attribute, cast).  "problem.*" keys are
# attributes of the InlineProblemSpec, the rest of the ExperimentConfig.
# serialize_config writes the keys in this order.
_KEYS = {
    "mode": ("mode", _choice("mode", MODES)),
    "benchmark": ("benchmark", _choice("benchmark", BENCHMARK_NAMES)),
    "problem.dimension": ("dimension", int),
    "problem.box": ("box", _pair),
    "problem.periodic": ("periodic", _bool),
    "problem.dynamics": ("dynamics", _choice("dynamics form", DYNAMICS_FORMS)),
    "problem.running_cost": ("running_cost", _choice("running cost form", RUNNING_COST_FORMS)),
    "problem.terminal_cost": ("terminal_cost", _choice("terminal cost form", TERMINAL_FORMS)),
    "problem.control_min": ("control_min", float),
    "problem.control_max": ("control_max", float),
    "problem.control_samples": ("control_samples", int),
    "problem.f_sup_bound": ("f_sup_bound", float),
    "scheme.h": ("h", float),
    "scheme.tau": ("tau", float),
    "scheme.N": ("N", float),
    "scheme.T": ("T", float),
    "output_dir": ("output_dir", str),
    "pi.max_iterations": ("pi_max_iterations", int),
    "pi.stop_tolerance": ("pi_stop_tolerance", float),
    "pi.record_every": ("pi_record_every", int),
    "pi.initial_policy": ("pi_initial_policy", _choice("initial policy", INITIAL_POLICIES)),
    "study.h_values": ("study_h_values", _floats),
    "study.tau_values": ("study_tau_values", _floats),
    "legendre.M": ("legendre_M", float),
    "legendre.hamiltonian": ("legendre_hamiltonian", _choice("Hamiltonian", LEGENDRE_FORMS)),
    "probes.points": ("probe_points", _floats),
    "probes.h_values": ("probe_h_values", _floats),
}
_POSITIVE_KEYS = ("scheme.h", "scheme.tau", "scheme.N", "scheme.T", "legendre.M",
                  "study.h_values", "study.tau_values", "probes.h_values")
_FINITE_KEYS = ("problem.control_min", "problem.control_max")
KNOWN_KEYS = sorted(_KEYS)


def _get(config, key):
    """The value ``key`` names in ``config``; None without an inline problem."""
    owner = config.problem if key.startswith("problem.") else config
    return None if owner is None else getattr(owner, _KEYS[key][0])


@contextmanager
def _blame(key):
    """Report a failure inside the block as a bad value of ``key``."""
    try:
        yield
    except (ValueError, ConfigurationError, CFLValidationError) as exc:
        raise ConfigParseError(f"{key!r}: {exc}", key=key) from None


def parse_config(text, mode=None):
    """Parse the flat key-value schema into a fully resolved config.

    Unknown keys, duplicate keys, type errors, unknown names and the
    out-of-range values ``validate_config`` names by key are parse errors
    carrying the offending line; the resolved (h, tau, N) must satisfy the
    CFL constraint or a validation error is raised before anything runs.
    ``mode`` (a subcommand) replaces the file's mode before the config is
    validated, so the checks are those of the run that follows.
    """
    values, problem_values, lines = {}, {}, {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigParseError(f"line {line_no}: expected 'key: value', got {raw!r}",
                                   line_no=line_no)
        key, _, value = line.partition(":")
        key = key.strip()
        if key in lines:
            raise ConfigParseError(f"line {line_no}: duplicate key {key!r}",
                                   line_no=line_no, key=key)
        if key not in _KEYS:
            raise ConfigParseError(f"line {line_no}: unknown key {key!r}",
                                   line_no=line_no, key=key)
        lines[key] = line_no
        attr, cast = _KEYS[key]
        try:
            parsed = cast(value.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(
                f"line {line_no}: bad value for {key!r}: {exc}",
                line_no=line_no, key=key) from None
        (problem_values if key.startswith("problem.") else values)[attr] = parsed

    if problem_values:
        values["problem"] = InlineProblemSpec(**problem_values)
    if mode is not None:
        values["mode"] = mode
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

    A name outside its choices, scheme numbers, ``legendre.M`` and spacing
    or step list entries that are not finite and > 0, non-finite control
    bounds, and probe points not finite or outside a clamped box raise
    ``ConfigParseError`` naming the key.  So do study lists too short or
    not strictly decreasing, and list entries whose grid or scheme
    parameters, built as the study or probe run builds them, are rejected.
    The CFL check builds the grid and scheme parameters the run itself
    builds, so the snapped spacing, the dimension and legendre-pi's
    viscosity N = m2/2 are the ones checked.  An inline problem's callbacks
    are sampled at t = 0 (no named form reads t) before any output exists;
    a form that overflows there is reported as non-finite, with no numpy
    warning.
    """
    for key, (_, cast) in _KEYS.items():
        value = _get(config, key)
        if value is None:
            continue
        if hasattr(cast, "names"):
            with _blame(key):
                cast(value)
        for entry in value if cast is _floats else (value,):
            if key in _POSITIVE_KEYS and not (math.isfinite(entry) and entry > 0.0):
                raise ConfigParseError(f"{key!r} must be a finite number > 0, got {entry!r}",
                                       key=key)
            if key in _FINITE_KEYS and not math.isfinite(entry):
                raise ConfigParseError(f"{key!r} must be finite, got {entry!r}", key=key)
    if (config.benchmark is None) == (config.problem is None):
        raise ConfigurationError("exactly one of 'benchmark' or 'problem.*' is required")
    if config.problem is not None and config.problem.dimension != 1:
        raise ConfigParseError("'problem.dimension' must be 1: inline problems are "
                               "one-dimensional", key="problem.dimension")
    benchmark = _resolve_benchmark(config)
    lo, hi = benchmark.box
    for point in config.probe_points or ():
        if not (math.isfinite(point) and (benchmark.periodic or lo <= point <= hi)):
            raise ConfigParseError(f"'probes.points' must be finite and, on a clamped box, "
                                   f"in [{lo}, {hi}], got {point!r}", key="probes.points")
    grid = benchmark.make_grid(config.h)
    if config.problem is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            validate_f_bound(benchmark.problem, grid, [0.0])
            discrete_sup_norms(benchmark.problem, grid, [0.0])
    if config.mode == "legendre-pi":
        legendre_scheme(_legendre_hamiltonian(config.legendre_hamiltonian, grid.dim),
                        config.legendre_M, grid, config.T, config.tau)
    else:
        _make_params(config, grid, benchmark.problem)
    with _blame("study.h_values"):
        if config.study_h_values is not None:
            check_refinement(config.study_h_values, RATE_STUDY_LEVELS, "rate study")
            for h in config.study_h_values:
                spacing_params(benchmark, h, config.T)
    with _blame("study.tau_values"):
        if config.study_tau_values is not None:
            check_refinement(config.study_tau_values, TAU_STUDY_LEVELS, "tau study")
            for tau in config.study_tau_values:
                spacing_params(benchmark, config.h, config.T, tau)
    with _blame("probes.h_values"):
        for h in config.probe_h_values or ():
            spacing_params(benchmark, h, config.T)


def _text(value):
    if isinstance(value, (tuple, list)):
        return ", ".join(artifact_io.fmt(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else artifact_io.fmt(value)


def serialize_config(config):
    """Canonical text form, one line per set key in ``_KEYS`` order;
    parse_config(serialize_config(c)) == c."""
    lines = [f"{key}: {_text(_get(config, key))}" for key in _KEYS
             if _get(config, key) is not None]
    return "\n".join(lines) + "\n"


def _resolve_benchmark(config):
    if config.benchmark is not None:
        return get_benchmark(config.benchmark)
    spec = config.problem
    problem = ControlProblem(
        dynamics=DYNAMICS_FORMS[spec.dynamics][0],
        running_cost=RUNNING_COST_FORMS[spec.running_cost][0],
        terminal_cost=TERMINAL_FORMS[spec.terminal_cost][0],
        controls=ControlSet.uniform(spec.control_min, spec.control_max,
                                    spec.control_samples),
        f_sup_bound=spec.f_sup_bound,
        time_invariant=True,  # no named form reads t
    )
    return Benchmark(name="inline", problem=problem, box=spec.box, periodic=spec.periodic)


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
    fit = None
    if len(errors) - burn_in >= FIT_MIN_ENTRIES:
        fit = fit_geometric_rate(errors, burn_in)
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


def _run_solve(config, benchmark, outdir):
    grid = benchmark.make_grid(config.h)
    params = _make_params(config, grid, benchmark.problem)
    sol = solve_hjb_direct(benchmark.problem, grid, params)
    artifact_io.write_solution_csv(sol, os.path.join(outdir, "solution.csv"))
    return [
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
    ]


def _run_pi(config, benchmark, outdir):
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
    return [
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
    ]


def _run_h_study(config, benchmark, outdir):
    if not config.study_h_values:
        raise ConfigurationError("h-study mode needs study.h_values")
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
    return [
        ("fitted_order", study.fitted_order),
        ("fitted_constant", study.fitted_constant),
        ("r_squared", study.r_squared),
        ("degenerate", study.degenerate),
    ]


def _run_tau_study(config, benchmark, outdir):
    if not config.study_tau_values:
        raise ConfigurationError("tau-study mode needs study.tau_values")
    study = run_tau_refinement_study(benchmark, config.h,
                                     list(config.study_tau_values), config.T)
    artifact_io.write_tau_study_csv(study, os.path.join(outdir, "study.csv"))
    artifact_io.write_gnuplot_dat(list(zip(study.tau_values[:-1], study.distances)),
                                  os.path.join(outdir, "study.dat"),
                                  "tau distance_to_next")
    decreasing = bool(np.all(np.diff(study.distances) < 0)) if len(study.distances) > 1 else True
    return [
        ("h", study.h),
        ("levels", len(study.tau_values)),
        ("distances_decreasing", decreasing),
        ("finest_distance", study.distances[-1] if study.distances else math.nan),
    ]


def _legendre_hamiltonian(name, dim):
    return LEGENDRE_FORMS[name][0](dim)


def _run_legendre_pi(config, benchmark, outdir):
    grid = benchmark.make_grid(config.h)
    H = _legendre_hamiltonian(config.legendre_hamiltonian, grid.dim)
    run = generalized_pi(H, benchmark.problem.terminal_cost, grid, config.T,
                         config.legendre_M, tau=config.tau,
                         max_iterations=config.pi_max_iterations,
                         stop_tolerance=config.pi_stop_tolerance,
                         record_every=config.pi_record_every)
    rho, r_squared, note = _rate_summary(run.errors_to_fixed_point)
    artifact_io.write_generalized_csv(run, os.path.join(outdir, "legendre_run.csv"))
    return [
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
    ]


def _run_probes(config, benchmark, outdir):
    if not config.probe_points:
        raise ConfigurationError("probes mode needs probes.points")
    h_values = config.probe_h_values or (config.h, config.h / 2.0, config.h / 4.0)
    table = policy_pointwise_convergence_probe(benchmark, list(h_values),
                                               list(config.probe_points), config.T)
    artifact_io.write_probes_csv(table, os.path.join(outdir, "probes.csv"))
    return [(f"stabilized_{artifact_io.fmt(point)}", table.stabilized(float(point)))
            for point in config.probe_points]


_MODE_RUNNERS = {
    "solve": _run_solve,
    "pi": _run_pi,
    "h-study": _run_h_study,
    "tau-study": _run_tau_study,
    "legendre-pi": _run_legendre_pi,
    "probes": _run_probes,
}


def run_experiment(config):
    """Validate and dispatch one experiment; map failures to documented exit codes."""
    return _run(config, validate=True)


def _run(config, validate):
    try:
        if validate:
            validate_config(config)
        if config.mode is None:
            raise ConfigurationError("no mode given (config key 'mode' or subcommand)")
        benchmark = _resolve_benchmark(config)
        outdir = config.output_dir
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "config.txt"), "w") as fh:
            fh.write(serialize_config(config))
        items = _MODE_RUNNERS[config.mode](config, benchmark, outdir)
        artifact_io.write_summary(os.path.join(outdir, "summary.txt"),
                                  [("mode", config.mode), ("benchmark", benchmark.name), *items])
        return EXIT_OK
    except NumericalBlowupError as exc:
        print(f"numerical blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except MonotonicityError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (HJBPIError, OSError) as exc:  # configuration, step size, I/O
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
        config = parse_config(text, mode=args.mode)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigParseError, ConfigurationError, CFLValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.output is not None:
        config = replace(config, output_dir=args.output)
    return _run(config, validate=False)  # parse_config validated it for this mode


if __name__ == "__main__":
    sys.exit(main())

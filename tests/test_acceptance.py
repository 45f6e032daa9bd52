"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with:  pytest tests/test_acceptance.py -v -s

Shared fixtures hold the four benchmark policy-iteration runs at their
pinned configurations; individual criteria assert against them.
"""

import math
import time

import numpy as np
import pytest

from hjbpi import pi as pi_module
from hjbpi.analysis import run_h_rate_study, semi_concavity_probe
from hjbpi.benchmarks import get_benchmark, lq_feedback_policies
from hjbpi.cli import ExperimentConfig, run_experiment
from hjbpi.legendre import (
    ConvexHamiltonian,
    generalized_pi,
    legendre_scheme,
    legendre_transform_numeric,
    reverse_time_slices,
)
from hjbpi.pi import PIConfig, fit_geometric_rate, run_policy_iteration
from hjbpi.problem import ControlProblem, ControlSet, rollout_cost
from hjbpi.scheme import SchemeParams, _step_kernel, solve_hjb_direct

BURN_IN = 2


def verdict(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def timed_pi_run(spy, evaluations, benchmark_name, h, tau=None, initial="rule:argmin-of-c",
                 max_iterations=80):
    bench = get_benchmark(benchmark_name)
    grid = bench.make_grid(h)
    params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound, tau=tau)
    if initial == "lq-feedback":
        policy = lq_feedback_policies(bench.problem, grid, params)
    else:
        policy = initial.split(":", 1)[1]
    config = PIConfig(initial_policy=policy, max_iterations=max_iterations)
    with spy(pi_module, "evaluate_policy") as made:
        start = time.perf_counter()
        run = run_policy_iteration(bench.problem, grid, params, config)
        elapsed = time.perf_counter() - start
    evaluations[benchmark_name] = made
    return bench, grid, params, run, elapsed


@pytest.fixture(scope="module")
def evaluations():
    """Benchmark name -> every evaluation of its pinned run, in order: a run
    keeps only its last iterate, so a spy on pi.evaluate_policy records them."""
    return {}


@pytest.fixture(scope="module")
def lq_run(spy, evaluations):
    # pinned: d=1, box [-2,2] clamped, 21 control samples, h=0.05, T=1;
    # the x-dependent feedback start is the one initialization with a
    # non-trivial decay history (constant rules collapse in two steps)
    return timed_pi_run(spy, evaluations, "quadratic-lq", h=0.05, initial="lq-feedback")


@pytest.fixture(scope="module")
def eik_run(spy, evaluations):
    # pinned: periodic, h=0.1, T=1; tau refined to 0.01 so the lock-in
    # front crosses enough levels to expose the geometric phase
    return timed_pi_run(spy, evaluations, "eikonal-cos", h=0.1, tau=0.01)


@pytest.fixture(scope="module")
def transport_run(spy, evaluations):
    return timed_pi_run(spy, evaluations, "transport-sin", h=0.1)


@pytest.fixture(scope="module")
def zero_run(spy, evaluations):
    return timed_pi_run(spy, evaluations, "zero", h=0.1)


@pytest.fixture(scope="module")
def all_runs(lq_run, eik_run, transport_run, zero_run):
    return {"quadratic-lq": lq_run, "eikonal-cos": eik_run,
            "transport-sin": transport_run, "zero": zero_run}


class TestCriterion1GeometricConvergence:
    def test_1a_quadratic_lq_rate_fit(self, lq_run):
        _, _, _, run, elapsed = lq_run
        errors = run.errors_to_fixed_point
        assert errors[-1] <= 1e-8, "PI limit must match the direct solve"
        assert elapsed <= 60.0
        # sampled-control policy iteration on this benchmark reaches the
        # exact fixed point after ~3 iterations from every admissible start
        # (Newton-like value decay plus control quantization), so the
        # pinned least-squares fit over >= 4 post-burn-in positive entries
        # has nothing to fit; the criterion is stated literally and fails.
        try:
            fit = fit_geometric_rate(errors, burn_in=BURN_IN)
        except ValueError as exc:
            verdict("1a geometric rate quadratic-lq", False,
                    f"errors={np.array2string(errors, precision=3)}; {exc}")
            pytest.fail(
                "criterion 1 is unattainable on quadratic-lq as stated: "
                f"error history {errors.tolist()} reaches the exact fixed "
                "point before 4 post-burn-in positive entries exist "
                "(see notes/decisions.md)")
        ok = fit.rho <= 0.8 and fit.r_squared >= 0.9
        verdict("1a geometric rate quadratic-lq", ok,
                f"rho={fit.rho:.4f} r2={fit.r_squared:.4f}")
        assert ok

    def test_1a_companion_finite_termination(self, lq_run):
        # what 1a's pinned run does instead of decaying geometrically: Howard's
        # algorithm on a finite control set stops at an exact fixed point
        # (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 2009)
        _, _, _, run, _ = lq_run
        errors = run.errors_to_fixed_point
        last = run.last_iterate
        same_policies = np.array_equal(last.policy_slices[1:],
                                       run.fixed_point.policy_slices[1:])
        ok = errors[-1] == 0.0 and run.stop_reason == "tolerance" and same_policies
        verdict("1a companion finite termination quadratic-lq", ok,
                f"final error {errors[-1]:.3e}, stop {run.stop_reason}, "
                f"argmins equal direct solve's: {same_policies}")
        assert errors[-1] == 0.0
        assert run.stop_reason == "tolerance"
        assert same_policies

    def test_1b_eikonal_rate_fit(self, eik_run):
        _, _, _, run, elapsed = eik_run
        errors = run.errors_to_fixed_point
        fit = fit_geometric_rate(errors, burn_in=BURN_IN)
        ok = (fit.rho <= 0.8 and fit.r_squared >= 0.9
              and errors[-1] <= 1e-8 and elapsed <= 60.0)
        verdict("1b geometric rate eikonal-cos", ok,
                f"rho={fit.rho:.4f} r2={fit.r_squared:.4f} "
                f"final={errors[-1]:.2e} time={elapsed:.2f}s")
        assert fit.rho <= 0.8
        assert fit.r_squared >= 0.9
        assert errors[-1] <= 1e-8
        assert elapsed <= 60.0


def test_criterion_2_sqrt_h_discretization_order():
    start = time.perf_counter()
    eik = run_h_rate_study(get_benchmark("eikonal-cos"), [0.2, 0.1, 0.05, 0.025], 1.0)
    smooth = run_h_rate_study(get_benchmark("transport-sin"),
                              [0.2, 0.1, 0.05, 0.025], 1.0)
    elapsed = time.perf_counter() - start
    ok = eik.fitted_order >= 0.45 and smooth.fitted_order >= 0.9 and elapsed <= 120.0
    verdict("2 discretization order", ok,
            f"eikonal={eik.fitted_order:.3f} (>=0.45) "
            f"transport={smooth.fitted_order:.3f} (>=0.9) time={elapsed:.1f}s")
    assert eik.fitted_order >= 0.45
    assert smooth.fitted_order >= 0.9
    assert elapsed <= 120.0
    for study in (eik, smooth):  # errors shrink with h, up to 5% coarse-level noise
        errors = np.array(study.errors)
        assert np.all(errors > 0)
        assert np.all(np.diff(errors) <= 0.05 * errors[:-1])


def test_criterion_3_monotone_iterates(all_runs):
    worst = {name: run.worst_monotonicity for name, (_, _, _, run, _) in all_runs.items()}
    counts = {name: run.monotonicity_violation_count
              for name, (_, _, _, run, _) in all_runs.items()}
    ok = all(w <= 1e-10 for w in worst.values()) and all(c == 0 for c in counts.values())
    # consequences of pointwise decrease plus the fixed-point sandwich
    for name, (_, _, _, run, _) in all_runs.items():
        assert np.max(run.fixed_point_excess) <= 1e-10, name
        assert np.all(np.diff(run.errors_to_fixed_point) <= 1e-10), name
    verdict("3 monotone iterates", ok,
            "worst=" + ", ".join(f"{k}:{v:.1e}" for k, v in worst.items()))
    assert ok


def test_criterion_4_comparison_principle(all_runs):
    worst_gap = -math.inf
    for name, (bench, grid, params, _, _) in all_runs.items():
        rng = np.random.default_rng(abs(hash(name)) % 2 ** 31)
        t = params.time(max(1, params.steps // 2))
        step = _step_kernel(bench.problem, grid, params)
        f_lo, f_hi = np.empty(grid.npoints), np.empty(grid.npoints)
        for _ in range(100):
            lo = rng.uniform(-1.0, 1.0, grid.npoints)
            hi = lo + rng.uniform(0.0, 1.0, grid.npoints)
            step(t, lo, f_lo)
            step(t, hi, f_hi)
            worst_gap = max(worst_gap, float(np.max(f_lo - f_hi)))
    ok = worst_gap <= 1e-14
    verdict("4 comparison principle", ok, f"worst ordering gap {worst_gap:.2e} <= 1e-14")
    assert ok


def test_criterion_5_apriori_bounds(all_runs, evaluations):
    worst = -math.inf
    for name, (_, _, _, run, _) in all_runs.items():
        worst = max(worst, run.fixed_point.bound_excess())
        made = evaluations[name]
        assert len(made) == run.iterations_used
        assert made[-1] is run.last_iterate
        for sol in made:
            worst = max(worst, sol.bound_excess())
    ok = worst <= 1e-9
    verdict("5 a-priori bounds", ok, f"worst excess {worst:.2e} <= 1e-9")
    assert ok


def test_criterion_6_semi_concavity_budget():
    bench = get_benchmark("eikonal-cos")
    ratios = []
    for h in (0.1, 0.05, 0.025):
        grid = bench.make_grid(h)
        params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
        sol = solve_hjb_direct(bench.problem, grid, params)
        hh = grid.spacing
        steps = sorted({1, 2, 4, max(1, round(0.25 / hh))})
        report = semi_concavity_probe(sol, [[k * hh] for k in steps])
        ratios.append(report.worst_ratio)
    spread = max(ratios) / min(ratios)
    ok = max(ratios) <= 10.0 and spread <= 2.0
    verdict("6 semi-concavity", ok,
            f"ratios={[round(r, 3) for r in ratios]} spread={spread:.2f}")
    assert max(ratios) <= 10.0
    assert spread <= 2.0


def quadratic_hamiltonian():
    return ConvexHamiltonian(
        func=lambda t, x, p: 0.5 * np.sum(np.asarray(p) ** 2, axis=-1),
        grad_p=lambda t, x, p: np.asarray(p, dtype=float),
        legendre_L=lambda t, x, mu: 0.5 * np.sum(np.asarray(mu) ** 2, axis=-1),
    )


def test_criterion_7_legendre_consistency():
    numeric = ConvexHamiltonian(
        func=lambda t, x, p: 0.5 * np.sum(np.asarray(p) ** 2, axis=-1))
    rng = np.random.default_rng(777)

    # (a) numeric transform of the self-dual quadratic, 100 probes
    mus = rng.uniform(-2.0, 2.0, size=100)
    duals = np.array([legendre_transform_numeric(numeric, 0.0, [0.0], [mu])
                      for mu in mus])
    worst_dual = float(np.max(np.abs(duals - 0.5 * mus ** 2)))

    # (b) Fenchel-Young on 10^4 (p, mu) pairs
    ps = rng.uniform(-2.0, 2.0, size=100)
    fy_gap = float(np.max(ps[None, :] * mus[:, None]
                          - duals[:, None] - 0.5 * ps[None, :] ** 2))

    # (c) generalized iteration vs the sampled-control formulation,
    # matched viscosity, compared through time reversal
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.05)
    clipped, gparams = legendre_scheme(quadratic_hamiltonian(), 2.0, grid, 1.0)
    grun = generalized_pi(clipped, lambda X: np.cos(X[:, 0]), grid, gparams,
                          max_iterations=60)
    prob = ControlProblem(
        dynamics=lambda t, x, a: np.full_like(x, a[0]),
        running_cost=lambda t, x, a: 0.5 * a[0] * a[0],
        terminal_cost=lambda x: np.cos(x[..., 0]),
        controls=ControlSet.uniform(-1.0, 1.0, 21),
        f_sup_bound=1.0,
    )
    params = SchemeParams.create(grid.spacing, 1.0, 1.0, tau=grun.params.tau,
                                 N=grun.params.N)
    crun = run_policy_iteration(prob, grid, params, PIConfig(max_iterations=80))
    forward = grun.last_iterate
    backward = reverse_time_slices(crun.last_iterate)
    cross = float(np.max(np.abs(forward - backward)))

    ok = worst_dual <= 1e-3 and fy_gap <= 1e-3 and cross <= 2e-2
    verdict("7 legendre duality", ok,
            f"dual err {worst_dual:.1e} <= 1e-3, FY gap {fy_gap:.1e} <= 1e-3, "
            f"cross-check {cross:.1e} <= 2e-2")
    assert worst_dual <= 1e-3
    assert fy_gap <= 1e-3
    assert cross <= 2e-2


def test_criterion_8_rollout_consistency(eik_run):
    bench, grid, params, run, _ = eik_run
    sol = run.fixed_point
    dt = params.tau / 2.0
    indices = np.linspace(2, grid.npoints - 3, 10).astype(int)
    worst = 0.0
    for idx in indices:
        x0 = grid.coordinates()[idx]
        cost = rollout_cost(bench.problem, grid, params, sol.policy_slices[1:], (0.0, x0), dt)
        worst = max(worst, abs(cost - sol.values[0][idx]))
    fitted_c = worst / (grid.spacing + params.tau + dt)
    ok = fitted_c <= 10.0
    verdict("8 rollout consistency", ok,
            f"max |J - V| = {worst:.3e}, fitted C = {fitted_c:.2f} <= 10")
    assert ok


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        solve_cfg = ExperimentConfig(mode="solve", benchmark="eikonal-cos", h=0.1,
                                     output_dir=str(base / "solve"))
        pi_cfg = ExperimentConfig(mode="pi", benchmark="quadratic-lq", h=0.05,
                                  output_dir=str(base / "pi"))
        assert run_experiment(solve_cfg) == 0
        assert run_experiment(pi_cfg) == 0
        blobs = {}
        for sub in ("solve", "pi"):
            for path in sorted((base / sub).iterdir()):
                if path.name == "config.txt":
                    continue  # echoes the differing output paths
                blobs[f"{sub}/{path.name}"] = path.read_bytes()
        outputs.append(blobs)
    same = outputs[0].keys() == outputs[1].keys() and all(
        outputs[0][k] == outputs[1][k] for k in outputs[0])
    verdict("9 determinism", same,
            f"{len(outputs[0])} artifact files byte-identical across reruns")
    assert same

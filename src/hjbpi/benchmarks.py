"""Built-in benchmark problems with known structure.

Each benchmark bundles a control problem with a canonical domain, the
topology it needs, reference-solution metadata, and a default initial
policy for policy iteration.  Periodic benchmarks snap the requested
spacing to an exact divisor of the domain length so the terminal data stays
periodic across the seam.  No benchmark's dynamics or running cost reads
``t``, so every problem here is flagged ``time_invariant``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .grid import Grid
from .problem import ControlProblem, ControlSet

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class Benchmark:
    name: str
    problem: ControlProblem
    box: tuple                      # (lo, hi), 1D
    periodic: bool
    kink_points: tuple = ()         # x where the reference argmin is non-unique
    hopf_lax: Optional[tuple] = None    # (c0, speed) for min-type Hamiltonians
    exact: Optional[Callable] = None    # exact(t, T, X) -> values, when known
    initial_policy_rule: str = "argmin-of-c"

    def make_grid(self, h):
        """Grid over the benchmark box; periodic boxes snap h to fit exactly."""
        lo, hi = self.box
        length = hi - lo
        if self.periodic:
            n = max(3, int(round(length / h)))
            return Grid(spacing=length / n, points_per_axis=(n,), origin=(lo,),
                        periodic=(True,))
        n = max(3, int(round(length / h)) + 1)
        return Grid(spacing=length / (n - 1), points_per_axis=(n,), origin=(lo,),
                    periodic=(False,))


def _quadratic_lq():
    problem = ControlProblem(
        dynamics=lambda t, x, a: a[0],
        running_cost=lambda t, x, a: 0.5 * a[0] * a[0],
        terminal_cost=lambda x: np.zeros(x.shape[:-1]),
        controls=ControlSet.uniform(-1.0, 1.0, 21),
        f_sup_bound=1.0,
        time_invariant=True,
    )
    return Benchmark(
        name="quadratic-lq",
        problem=problem,
        box=(-2.0, 2.0),
        periodic=False,
        exact=lambda t, T, X: np.zeros(X.shape[0]),
        initial_policy_rule="lq-feedback",
    )


def _eikonal_cos():
    problem = ControlProblem(
        dynamics=lambda t, x, a: a[0],
        running_cost=lambda t, x, a: 1.0,
        terminal_cost=lambda x: np.cos(x[..., 0]),
        controls=ControlSet(np.array([-1.0, 1.0])),
        f_sup_bound=1.0,
        time_invariant=True,
    )
    return Benchmark(
        name="eikonal-cos",
        problem=problem,
        box=(0.0, TWO_PI),
        periodic=True,
        kink_points=(0.0, math.pi),
        hopf_lax=(1.0, 1.0),
    )


def _transport_sin():
    problem = ControlProblem(
        dynamics=lambda t, x, a: np.ones_like(x),
        running_cost=lambda t, x, a: 0.0,
        terminal_cost=lambda x: np.sin(x[..., 0]),
        controls=ControlSet.singleton([0.0]),
        f_sup_bound=1.0,
        time_invariant=True,
    )
    return Benchmark(
        name="transport-sin",
        problem=problem,
        box=(0.0, TWO_PI),
        periodic=True,
        exact=lambda t, T, X: np.sin(X[:, 0] + (T - t)),
    )


def _zero():
    problem = ControlProblem(
        dynamics=lambda t, x, a: a[0],
        running_cost=lambda t, x, a: 0.0,
        terminal_cost=lambda x: np.zeros(x.shape[:-1]),
        controls=ControlSet(np.array([-1.0, 0.0, 1.0])),
        f_sup_bound=1.0,
        time_invariant=True,
    )
    return Benchmark(
        name="zero",
        problem=problem,
        box=(0.0, 1.0),
        periodic=True,
        exact=lambda t, T, X: np.zeros(X.shape[0]),
    )


_CATALOG = {
    "quadratic-lq": _quadratic_lq,
    "eikonal-cos": _eikonal_cos,
    "transport-sin": _transport_sin,
    "zero": _zero,
}

BENCHMARK_NAMES = tuple(sorted(_CATALOG))


def get_benchmark(name):
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARK_NAMES)}") from None
    return factory()


def lq_feedback_policies(problem, grid, params):
    """Linear-feedback start for the quadratic benchmark: a(x) nearest to -x.

    Constant initial rules collapse onto the fixed point after one or two
    improvements here, so this x-dependent start is the one that produces a
    non-trivial decay history.  Ties at sample midpoints break to the lower
    index, matching the first-attainer rule used everywhere else.
    """
    samples = problem.controls.elements[:, 0]
    lo, hi = samples[0], samples[-1]
    spacing = (hi - lo) / (len(samples) - 1)
    target = np.clip(-grid.coordinates()[:, 0], lo, hi)
    idx = np.ceil((target - lo) / spacing - 0.5).astype(np.int64)
    idx = np.clip(idx, 0, len(samples) - 1).astype(problem.controls.index_dtype)
    return np.broadcast_to(idx, (params.steps, grid.npoints))

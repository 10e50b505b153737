"""Dense integrators for the thermal ODE.

Two implementations of the :class:`~repro.thermal.solvers.ThermalSolver`
interface (``advance(temps, block_power, dt)`` +
``steady_state(block_power)``):

* :class:`ExactIntegrator` (registered as ``dense-exact``) — because
  the network is linear and the power is piecewise constant over a
  sensor interval, the interval can be integrated *exactly*:
  ``T(t+h) = T_ss + expm(-C^-1 K h) (T(t) - T_ss)`` with ``T_ss`` the
  steady state under the interval-average power.  The matrix
  exponential is precomputed per step size, so a step costs one
  pre-factored solve and one mat-vec.
* :class:`EulerIntegrator` (registered as ``euler``) — plain forward
  Euler with automatic sub-stepping below the stability bound; exists
  to cross-validate the exact integrators in tests and for users who
  modify the network time-dependently.

The scalable solvers (``sparse-exact``, ``reduced``) live in
:mod:`repro.thermal.solvers` next to the solver registry.  One-time
per-network artifacts (here: the dense propagators) are shared through
the process-wide :data:`repro.thermal.cache.shared_artifacts` cache, so
campaign runs over the same platform/package compute each matrix
exponential once per worker.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy.linalg import expm, get_lapack_funcs, lu_factor

from repro.thermal.cache import clear_artifact_cache, shared_artifacts
from repro.thermal.rc_network import RCNetwork


def clear_propagator_cache() -> None:
    """Drop the process-wide solver artifact cache (mainly for tests).

    Kept under its historical name; the cache now holds every solver's
    per-network artifacts, not just the dense propagators.
    """
    clear_artifact_cache()


class ExactIntegrator:
    """Exact piecewise-constant-input integrator for the linear network."""

    #: Registry name (see :data:`repro.thermal.solvers.solver_registry`).
    name = "dense-exact"

    def __init__(self, network: RCNetwork):
        self.network = network
        self._lu, self._piv = lu_factor(network.conductance)
        # ``lu_solve`` ends in this LAPACK routine; calling it directly
        # skips the wrapper's per-call dispatch, which costs more than
        # the solve itself on a network of a few dozen nodes.
        self._getrs, = get_lapack_funcs(("getrs",), (self._lu,))
        self._propagators: Dict[float, np.ndarray] = {}
        # -C^-1 K, the state matrix of dT/dt = A T + C^-1 (P + b).
        self._state_matrix = -(network.conductance
                               / network.capacitance[:, None])
        self._digest = network.digest()

    def _propagator(self, dt: float) -> np.ndarray:
        """``expm(A * dt)`` cached per distinct step size.

        Backed by the process-wide artifact cache keyed on the state
        matrix, so integrators over identical networks (e.g. the runs
        of one campaign sweep) compute each matrix exponential once.
        """
        key = round(float(dt), 12)
        prop = self._propagators.get(key)
        if prop is None:
            prop = shared_artifacts.get_or_build(
                (self.name, self._digest, key),
                lambda: expm(self._state_matrix * float(dt)))
            self._propagators[key] = prop
        return prop

    def steady_state(self, block_power: np.ndarray) -> np.ndarray:
        """Equilibrium for constant power, via the pre-factored solve.

        Raises :class:`ValueError` when the power holds NaN or infinity,
        as :func:`scipy.linalg.lu_solve` does.
        """
        forcing = self.network.forcing_vector(block_power)
        if not np.isfinite(forcing).all():
            raise ValueError("array must not contain infs or NaNs")
        t_ss, info = self._getrs(self._lu, self._piv, forcing)
        if info != 0:
            raise ValueError(
                f"illegal value in {-info}th argument of internal getrs")
        return t_ss

    def advance(self, temps: np.ndarray, block_power: np.ndarray,
                dt: float) -> np.ndarray:
        """Exact temperatures after ``dt`` seconds of constant power."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        t_ss = self.steady_state(block_power)
        return t_ss + self._propagator(dt) @ (temps - t_ss)

    def advance_batch(self, temps: np.ndarray, block_power: np.ndarray,
                      dt: float) -> np.ndarray:
        """Batched advance over ``(N, K)`` stacked states.

        Column-by-column: a dense gemm over the stacked columns is not
        bitwise column-stable across batch widths, and this solver's
        contract is byte-for-byte equality with the paper's integrator.
        """
        from repro.thermal.solvers import batched_by_columns
        return batched_by_columns(self, temps, block_power, dt)


class EulerIntegrator:
    """Forward Euler with stability-bounded sub-steps."""

    #: Registry name (see :data:`repro.thermal.solvers.solver_registry`).
    name = "euler"

    def __init__(self, network: RCNetwork, safety: float = 0.2):
        if not 0 < safety <= 1:
            raise ValueError("safety factor must lie in (0, 1]")
        self.network = network
        self.max_substep = safety * network.min_time_constant()

    def steady_state(self, block_power: np.ndarray) -> np.ndarray:
        """Equilibrium for constant power (direct dense solve)."""
        return self.network.steady_state(block_power)

    def advance(self, temps: np.ndarray, block_power: np.ndarray,
                dt: float) -> np.ndarray:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        n_sub = max(1, int(np.ceil(dt / self.max_substep)))
        h = dt / n_sub
        t = np.asarray(temps, dtype=float).copy()
        for _ in range(n_sub):
            t += h * self.network.derivative(t, block_power)
        return t

    def advance_batch(self, temps: np.ndarray, block_power: np.ndarray,
                      dt: float) -> np.ndarray:
        """Batched advance over ``(N, K)`` stacked states (column loop)."""
        from repro.thermal.solvers import batched_by_columns
        return batched_by_columns(self, temps, block_power, dt)


def integrator_agreement(network: RCNetwork, block_power: np.ndarray,
                         duration: float, dt: float) -> Tuple[float, float]:
    """Max per-node disagreement between the two dense integrators.

    Returns ``(max_abs_error_c, final_mean_temp_c)``; used by validation
    tests and by :mod:`repro.thermal.calibration` reports.
    """
    exact = ExactIntegrator(network)
    euler = EulerIntegrator(network, safety=0.05)
    t_exact = network.initial_temperatures()
    t_euler = t_exact.copy()
    steps = max(1, int(round(duration / dt)))
    worst = 0.0
    for _ in range(steps):
        t_exact = exact.advance(t_exact, block_power, dt)
        t_euler = euler.advance(t_euler, block_power, dt)
        worst = max(worst, float(np.max(np.abs(t_exact - t_euler))))
    return worst, float(np.mean(t_exact))

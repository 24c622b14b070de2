"""Kernel-vs-oracle bit-identity suite for the ``REPRO_KERNELS`` backends.

The kernel layer (:mod:`repro.matching.kernels`, the ``BigSliceState``
warm-start path, the Eclipse best-first greedy step) is only admissible if it
is **bit-identical** to the pure-Python/seed oracles it replaces — not
approximately equal: the repo's regression gates compare schedules and
simulations entry-for-entry.  This suite fuzzes that contract with
hypothesis over random demands and fault plans, plus targeted regressions
for the three bugfixes that rode along with the kernel work:

* the recursive Hopcroft–Karp DFS blowing Python's recursion limit on deep
  augmenting paths (now an explicit-stack walk);
* ``is_equal_sum`` spuriously rejecting large-φ stuffed matrices whose
  float error is a few ulps of φ (now a relative tolerance);
* tied-slack ordering in QuickStuff depending on numpy's unstable introsort
  (now ``kind="stable"`` everywhere ordering feeds arithmetic).
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.faults import FaultPlan
from repro.hybrid.eclipse.scheduler import EclipseScheduler
from repro.hybrid.solstice.scheduler import SolsticeScheduler
from repro.hybrid.solstice.slicing import BigSliceState, big_slice
from repro.hybrid.solstice.stuffing import quick_stuff_diagnosed
from repro.matching import kernels
from repro.matching.birkhoff import birkhoff_von_neumann, is_equal_sum
from repro.matching.hopcroft_karp import maximum_matching_mask
from repro.matching.max_weight import max_weight_matching
from repro.sim import simulate_hybrid
from repro.switch.params import SwitchParams, fast_ocs_params
from repro.utils.rng import spawn_rngs
from repro.utils.validation import VOLUME_TOL
from repro.workloads.skewed import SkewedWorkload

PARAMS = SwitchParams(n_ports=6, eps_rate=10.0, ocs_rate=100.0, reconfig_delay=0.02)


def demand_matrices(max_n: int = 7, max_value: float = 30.0):
    """Square non-negative demand matrices with some sparsity."""
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            arrays(
                np.float64,
                (n, n),
                elements=st.floats(0.0, max_value, allow_nan=False, width=32),
            ),
            arrays(np.bool_, (n, n)),
        ).map(lambda pair: pair[0] * pair[1])
    )


def masks(max_n: int = 8):
    """Square boolean biadjacency masks."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: arrays(np.bool_, (n, n))
    )


def fault_plans():
    """Arbitrary valid fault plans, including the all-zero one."""
    rates = st.floats(0.0, 1.0, allow_nan=False)
    return st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=2**16),
        reconfig_failure_rate=rates,
        reconfig_straggle_rate=rates,
        straggle_factor=st.floats(1.0, 8.0, allow_nan=False),
        circuit_failure_rate=rates,
        eps_degradation_rate=rates,
        eps_degradation_factor=st.floats(0.1, 1.0, allow_nan=False),
    )


def _schedules_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        ea.duration == eb.duration
        and np.array_equal(ea.permutation, eb.permutation)
        for ea, eb in zip(a, b)
    )


def _params_for(n: int) -> SwitchParams:
    return SwitchParams(
        n_ports=n, eps_rate=10.0, ocs_rate=100.0, reconfig_delay=0.02
    )


# ---------------------------------------------------------------------- #
# QuickStuff
# ---------------------------------------------------------------------- #


class TestQuickStuffIdentity:
    @given(demand=demand_matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_oracle_bitwise(self, demand):
        with kernels.use_backend(kernels.ORACLE):
            oracle, oracle_diag = quick_stuff_diagnosed(demand)
        with kernels.use_backend(kernels.KERNEL):
            kernel, kernel_diag = quick_stuff_diagnosed(demand)
        assert np.array_equal(oracle, kernel)
        assert (oracle_diag is None) == (kernel_diag is None)

    def test_tied_slack_ordering_is_deterministic(self):
        # Regression: every load duplicated, so pass 1's value sort and
        # pass 2's slack sorts are all ties.  The unstable introsort used
        # to order these differently across numpy builds; kind="stable"
        # pins one order, which both backends must share exactly.
        demand = np.zeros((6, 6))
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)):
            demand[i, j] = 7.0
        demand[0, 3] = demand[1, 4] = demand[2, 5] = 7.0
        with kernels.use_backend(kernels.ORACLE):
            first, _ = quick_stuff_diagnosed(demand)
            second, _ = quick_stuff_diagnosed(demand)
        with kernels.use_backend(kernels.KERNEL):
            third, _ = quick_stuff_diagnosed(demand)
        assert np.array_equal(first, second)
        assert np.array_equal(first, third)
        phi = max(demand.sum(axis=0).max(), demand.sum(axis=1).max())
        np.testing.assert_allclose(first.sum(axis=0), phi, rtol=1e-12)
        np.testing.assert_allclose(first.sum(axis=1), phi, rtol=1e-12)


# ---------------------------------------------------------------------- #
# maximum matching
# ---------------------------------------------------------------------- #


class TestMatchingIdentity:
    @given(mask=masks())
    @settings(max_examples=80, deadline=None)
    def test_recycled_csr_matches_plain_scipy(self, mask):
        if not kernels.SCIPY_AVAILABLE:
            pytest.skip("scipy not available")
        plain_match, plain_size = maximum_matching_mask(mask)
        fast_match, fast_size = kernels.scipy_matching_mask(mask)
        assert plain_size == fast_size
        assert np.array_equal(plain_match, fast_match)

    @given(mask=masks())
    @settings(max_examples=80, deadline=None)
    def test_csr_direct_matches_mask_path(self, mask):
        if not kernels.SCIPY_AVAILABLE:
            pytest.skip("scipy not available")
        n = mask.shape[0]
        indices = np.flatnonzero(mask).astype(np.int32) % np.int32(n)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(mask.sum(axis=1, dtype=np.int32), out=indptr[1:])
        mask_match, mask_size = kernels.scipy_matching_mask(mask)
        csr_match, csr_size = kernels.scipy_matching_csr(indices, indptr, n)
        assert mask_size == csr_size
        assert np.array_equal(mask_match, csr_match)

    @given(mask=masks(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_cardinality_matches_pure_python(self, mask):
        # Matchings may legally differ between algorithms; their size may
        # not — feasibility verdicts hang off the cardinality alone.
        _, scipy_size = maximum_matching_mask(mask)
        _, python_size = maximum_matching_mask(mask, use_scipy=False)
        assert scipy_size == python_size

    @given(demand=demand_matrices(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_warm_matcher_verdicts_are_exact(self, demand):
        matrix = demand.copy()
        matcher = kernels.WarmMatcher(matrix)
        positive = np.unique(matrix[matrix > VOLUME_TOL])
        thresholds = list(positive[:: max(1, positive.size // 4)]) + [
            VOLUME_TOL,
            1e9,
        ]
        n = matrix.shape[0]
        for threshold in thresholds:
            threshold = float(threshold)
            expected = (
                maximum_matching_mask(matrix >= threshold)[1] == n
            )
            assert matcher.feasible(threshold) == expected

    def test_deep_augmenting_path_no_recursion_error(self):
        # Regression: rows 0..n-2 see columns {i, i+1}, row n-1 sees only
        # column 0 — the greedy first phase matches i -> i, and the last
        # row's augmenting path then rethreads the whole chain (length
        # ~2n).  The recursive DFS died on Python's 1000-frame limit here;
        # the explicit-stack version must find the perfect matching.
        n = 1500
        mask = np.zeros((n, n), dtype=bool)
        idx = np.arange(n - 1)
        mask[idx, idx] = True
        mask[idx, idx + 1] = True
        mask[n - 1, 0] = True
        match, size = maximum_matching_mask(mask, use_scipy=False)
        assert size == n
        assert np.array_equal(np.sort(match), np.arange(n))


# ---------------------------------------------------------------------- #
# BigSlice
# ---------------------------------------------------------------------- #


class TestBigSliceIdentity:
    @given(demand=demand_matrices(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_slicing_loop_bit_identity(self, demand):
        with kernels.use_backend(kernels.ORACLE):
            stuffed, _ = quick_stuff_diagnosed(demand)
        if stuffed.max(initial=0.0) <= VOLUME_TOL:
            return
        oracle = stuffed.copy()
        kernel = stuffed.copy()
        state = BigSliceState(kernel)
        n = stuffed.shape[0]
        rows = np.arange(n)
        for _ in range(n * n):
            if oracle.max(initial=0.0) <= VOLUME_TOL:
                break
            oracle_exc = kernel_exc = None
            try:
                o_threshold, o_perm = big_slice(oracle)
            except ValueError as exc:
                oracle_exc = str(exc)
            try:
                k_threshold, k_perm = big_slice(kernel, state=state)
            except ValueError as exc:
                kernel_exc = str(exc)
            # Exception parity: degraded matrices must degrade identically.
            assert oracle_exc == kernel_exc
            if oracle_exc is not None:
                break
            assert o_threshold == k_threshold
            assert np.array_equal(o_perm, k_perm)
            mask = o_perm.astype(bool)
            oracle[mask] = np.maximum(oracle[mask] - o_threshold, 0.0)
            cols = state.last_match
            kernel[rows, cols] = np.maximum(
                kernel[rows, cols] - k_threshold, 0.0
            )
            assert np.array_equal(oracle, kernel)


# ---------------------------------------------------------------------- #
# full schedulers, demands and fault plans
# ---------------------------------------------------------------------- #


class TestSchedulerIdentity:
    @given(demand=demand_matrices(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_solstice_schedule_bit_identity(self, demand):
        params = _params_for(demand.shape[0])
        with kernels.use_backend(kernels.ORACLE):
            scheduler = SolsticeScheduler()
            oracle = scheduler.schedule(demand, params)
            oracle_events = [d.event for d in scheduler.last_diagnostics]
        with kernels.use_backend(kernels.KERNEL):
            scheduler = SolsticeScheduler()
            kernel = scheduler.schedule(demand, params)
            kernel_events = [d.event for d in scheduler.last_diagnostics]
        assert _schedules_equal(oracle, kernel)
        assert oracle_events == kernel_events

    @given(demand=demand_matrices(max_n=6))
    @settings(max_examples=25, deadline=None)
    def test_eclipse_schedule_bit_identity(self, demand):
        params = _params_for(demand.shape[0])
        with kernels.use_backend(kernels.ORACLE):
            oracle = EclipseScheduler().schedule(demand, params)
        with kernels.use_backend(kernels.KERNEL):
            kernel = EclipseScheduler().schedule(demand, params)
        assert _schedules_equal(oracle, kernel)

    @given(
        demand=demand_matrices(max_n=6, max_value=20.0),
        plan=fault_plans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_simulated_results_identical_under_faults(self, demand, plan):
        n = demand.shape[0]
        params = _params_for(n)
        with kernels.use_backend(kernels.ORACLE):
            oracle_sched = SolsticeScheduler().schedule(demand, params)
        with kernels.use_backend(kernels.KERNEL):
            kernel_sched = SolsticeScheduler().schedule(demand, params)
        oracle_result = simulate_hybrid(demand, oracle_sched, params, faults=plan)
        kernel_result = simulate_hybrid(demand, kernel_sched, params, faults=plan)
        assert np.array_equal(
            oracle_result.finish_times, kernel_result.finish_times, equal_nan=True
        )
        same_completion = (
            oracle_result.completion_time == kernel_result.completion_time
            or (
                np.isnan(oracle_result.completion_time)
                and np.isnan(kernel_result.completion_time)
            )
        )
        assert same_completion


# ---------------------------------------------------------------------- #
# Eclipse greedy step
# ---------------------------------------------------------------------- #

OCS_RATE = 100.0


def eclipse_residuals(max_n: int = 24):
    """Residuals for one greedy step: tie-heavy quantised or sparse."""
    quantised = st.integers(2, max_n).flatmap(
        lambda n: arrays(
            np.float64,
            (n, n),
            elements=st.sampled_from([0.0, 0.0, 1.0, 2.0, 2.0, 5.0, 30.0]),
        )
    )
    sparse = st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, (n, n), elements=st.floats(0.0, 50.0, width=32)),
            arrays(np.bool_, (n, n), elements=st.sampled_from([False, False, True])),
        ).map(lambda pair: pair[0] * pair[1])
    )
    return st.one_of(quantised, sparse).filter(lambda r: r.max() > VOLUME_TOL)


delays = st.one_of(st.just(0.0), st.floats(1e-9, 1e3))


def _step(backend, residual, delta, available, grid_size=16, durations=None):
    """One greedy step under ``backend``; ``durations`` overrides the grid."""
    grid = (
        contextlib.nullcontext()
        if durations is None
        else mock.patch(
            "repro.hybrid.eclipse.scheduler.candidate_durations",
            lambda *args, **kwargs: durations.copy(),
        )
    )
    with kernels.use_backend(backend), grid:
        return EclipseScheduler(grid_size=grid_size)._best_step(
            residual.copy(), OCS_RATE, delta, available
        )


def _assert_same_step(oracle, kernel):
    if oracle is None or kernel is None:
        assert oracle is None and kernel is None
        return
    assert np.float64(oracle[0]).tobytes() == np.float64(kernel[0]).tobytes()
    for a, b in zip(oracle[1:], kernel[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestEclipseStepIdentity:
    """The kernel's best-first search returns the oracle's (α, permutation,
    served) byte for byte."""

    @given(
        residual=eclipse_residuals(),
        grid_size=st.sampled_from([2, 3, 16, 64]),
        delta=delays,
        window=st.floats(-9.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernel_step_matches_oracle(self, residual, grid_size, delta, window):
        # From a window far below the smallest drain time up to one past
        # the largest, where every candidate is saturated.
        available = 10.0**window * 2 * residual.max() / OCS_RATE
        oracle = _step(kernels.ORACLE, residual, delta, available, grid_size)
        kernel = _step(kernels.KERNEL, residual, delta, available, grid_size)
        _assert_same_step(oracle, kernel)

    @given(
        residual=eclipse_residuals(max_n=12),
        exponents=st.lists(st.floats(-14.0, 1.0), min_size=1, max_size=24),
        delta=delays,
    )
    @settings(max_examples=300, deadline=None)
    def test_kernel_step_matches_oracle_on_any_grid(self, residual, exponents, delta):
        # Grids the quantile rule never builds, down to durations whose
        # every weight is below VOLUME_TOL: such a candidate is dismissed
        # unsolved, and must not bound the larger ones as if worth 0.
        durations = np.unique(10.0 ** np.array(exponents))
        oracle = _step(kernels.ORACLE, residual, delta, 1.0, durations=durations)
        kernel = _step(kernels.KERNEL, residual, delta, 1.0, durations=durations)
        _assert_same_step(oracle, kernel)

    def test_near_tied_rates_keep_the_earlier_candidate(self):
        # Unsaturated at both durations, V(α) = 4·α·Co, so the later rate
        # is higher, but by less than the rule's 1e-12 relative margin.
        residual = np.diag([1000.0] * 4)
        durations = np.array([0.5, 1.0])
        delta = 5e-13
        first = 4 * 0.5 * OCS_RATE / (0.5 + delta)
        second = 4 * 1.0 * OCS_RATE / (1.0 + delta)
        assert first < second <= first * (1 + 1e-12)
        oracle = _step(kernels.ORACLE, residual, delta, 1.0, durations=durations)
        kernel = _step(kernels.KERNEL, residual, delta, 1.0, durations=durations)
        assert oracle[0] == 0.5
        _assert_same_step(oracle, kernel)

    @pytest.mark.parametrize(
        "y,durations,delta,winner",
        [
            # Solved first, α = 1 gives V = cap = 100: the scaled bound
            # (1.5/1)·100 on α = 1.5 is exact, and α = 1.5 wins by 0.03 %.
            (40.0, (1.0, 1.5), 1e-3, 1.5),
            # Solved first, α = 1.1 gives V = 2y = 120 = V(0.7): the
            # monotone bound on α = 0.7 is exact, and α = 0.7 wins by 0.04 %.
            (60.0, (0.7, 1.1), 1e3, 0.7),
        ],
    )
    def test_exact_neighbour_bound_still_reaches_the_winner(
        self, y, durations, delta, winner
    ):
        # V(α) = max(min(1000, α·Co), 2·min(y, α·Co)); the row/col bound
        # min(1000, α·Co) + y is loose, so the loser is solved first.
        residual = np.array([[1000.0, y], [y, 0.0]])
        durations = np.array(durations)
        oracle = _step(kernels.ORACLE, residual, delta, 1.0, durations=durations)
        kernel = _step(kernels.KERNEL, residual, delta, 1.0, durations=durations)
        assert oracle[0] == winner
        _assert_same_step(oracle, kernel)

    def test_fig6_step_solves_fewer_candidates_than_it_has(self):
        params = fast_ocs_params(64)
        (rng,) = spawn_rngs(1, 1)
        residual = SkewedWorkload.for_params(params).generate(64, rng).demand
        delta = params.reconfig_delay
        available = EclipseScheduler().resolved_window(params) - delta
        solves = {}
        for backend in (kernels.ORACLE, kernels.KERNEL):
            scheduler = EclipseScheduler()
            with kernels.use_backend(backend), mock.patch(
                "repro.hybrid.eclipse.scheduler.max_weight_matching",
                wraps=max_weight_matching,
            ) as solve:
                solves[backend] = scheduler._best_step(
                    residual.copy(), params.ocs_rate, delta, available
                )
            assert scheduler.last_lsap_solves == solve.call_count
            if backend == kernels.ORACLE:
                candidates = scheduler.last_candidates
                assert solve.call_count == candidates
        _assert_same_step(solves[kernels.ORACLE], solves[kernels.KERNEL])
        assert candidates > 8
        assert 2 * scheduler.last_lsap_solves <= candidates


# ---------------------------------------------------------------------- #
# equal-sum tolerance
# ---------------------------------------------------------------------- #


class TestEqualSumTolerance:
    def test_large_phi_ulp_noise_accepted(self):
        # Regression: a few ulps of φ = 1e12 is ~1e-4 in absolute terms —
        # far above the old absolute 1e-6 cutoff, but exactly the float
        # dust big stuffed matrices carry.  The relative tolerance must
        # accept it.
        matrix = np.full((4, 4), 2.5e11)
        matrix[0, 0] += 3e-4
        assert is_equal_sum(matrix)

    def test_genuinely_unequal_sums_rejected(self):
        matrix = np.full((4, 4), 2.5e11)
        matrix[0, 0] += 1e7  # 10 ppm of phi: a real imbalance
        assert not is_equal_sum(matrix)

    def test_large_phi_decomposes(self):
        rng = np.random.default_rng(7)
        demand = rng.random((8, 8)) * 1e9
        with kernels.use_backend(kernels.ORACLE):
            stuffed, diag = quick_stuff_diagnosed(demand)
        assert diag is None
        assert is_equal_sum(stuffed)
        # The dust threshold must scale with φ like the equal-sum check
        # does: at φ ~ 1e10 the subtraction noise alone dwarfs any fixed
        # absolute cutoff.
        phi = float(stuffed.sum(axis=1).max())
        terms = birkhoff_von_neumann(stuffed, tol=1e-9 * phi)
        total = sum(term.weight for term in terms)
        assert abs(total - phi) <= 1e-6 * phi

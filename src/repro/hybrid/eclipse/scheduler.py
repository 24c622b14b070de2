"""The Eclipse scheduling loop (Bojja Venkatakrishnan et al., Sigmetrics '16).

Eclipse targets **OCS utilization**: maximize the total demand transmitted
over the circuit switch inside a fixed scheduling window ``W``, paying a
reconfiguration penalty δ for every configuration.  The objective is
monotone submodular in the chosen set of (configuration, duration) pairs,
and the paper's greedy — repeatedly pick the pair maximizing *served volume
per unit of wall time* — is a 1/2-approximation.

One greedy step here:

1. build the candidate duration grid (see
   :mod:`repro.hybrid.eclipse.durations`);
2. for each α, solve a maximum-weight matching with weights
   ``min(residual_ij, α · Co)`` (the kernel backend solves only the α
   whose value bound could still win, with the same pick; see
   :meth:`EclipseScheduler._best_step_kernel`);
3. keep the (α, M) with the best ``value / (α + δ)``;
4. commit it: subtract the served volume, advance the window clock by
   ``α + δ``.

The loop ends when the window cannot fit another reconfiguration plus a
positive-duration configuration, or no residual demand remains.

Watchdogs
---------
With a tiny reconfiguration penalty and a residual full of near-tolerance
entries, the greedy can legally take astronomically many microscopic steps
before the window fills — a hung trial from the sweep's point of view.  A
step cap (``max_steps``, default ``8·n + 256`` — generous against the
handful of steps any realistic window admits) and a clock-stall detector
bound the loop; on either trigger the scheduler returns the schedule built
so far (valid — the EPS serves the rest) and records a
:class:`~repro.hybrid.diagnostics.SchedulerDiagnostics` entry on
``last_diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.hybrid.diagnostics import SchedulerDiagnostics
from repro.hybrid.eclipse.durations import candidate_durations
from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.matching import kernels
from repro.matching.max_weight import assignment_to_permutation, max_weight_matching
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix, check_positive

#: Window (ms) paired with fast OCS in the paper's evaluation (§3.1).
DEFAULT_FAST_WINDOW: float = 1.0
#: Window (ms) paired with slow OCS in the paper's evaluation (§3.1).
DEFAULT_SLOW_WINDOW: float = 100.0
#: Reconfiguration delays at or below this (ms) count as "fast" when the
#: window is left to default.
_FAST_DELTA_CUTOFF: float = 1.0


@dataclass
class EclipseScheduler:
    """Utilization-driven h-Switch scheduler.

    Parameters
    ----------
    window:
        Scheduling window ``W`` in ms.  ``None`` selects the paper's pairing
        by OCS class: 1 ms when ``δ ≤ 1 ms`` (fast OCS), else 100 ms.
    grid_size:
        Number of candidate durations evaluated per greedy step.
    max_steps:
        Watchdog cap on greedy steps; ``None`` uses ``8·n + 256``.

    Attributes
    ----------
    last_diagnostics:
        Watchdog records from the most recent :meth:`schedule` call (empty
        when the loop converged normally).
    last_candidates, last_lsap_solves:
        Candidate durations considered and LSAP solves run by the most
        recent :meth:`schedule` call.  The oracle backend solves every
        candidate; the kernel backend solves only those that can matter.
    """

    window: "float | None" = None
    grid_size: int = 16
    max_steps: "int | None" = None
    name: str = "eclipse"
    last_diagnostics: "list[SchedulerDiagnostics]" = field(
        default_factory=list, repr=False, compare=False
    )
    last_candidates: int = field(default=0, repr=False, compare=False)
    last_lsap_solves: int = field(default=0, repr=False, compare=False)
    #: Optional :class:`~repro.service.deadline.DeadlineBudget` polled at
    #: every greedy step (duck-typed to avoid an import cycle).  A budget
    #: that never exhausts changes nothing — checkpoints only read the
    #: clock.
    budget: "object | None" = field(default=None, repr=False, compare=False)

    def resolved_window(self, params: SwitchParams) -> float:
        """The window actually used for ``params`` (resolving the default)."""
        if self.window is not None:
            return check_positive("window", self.window)
        if params.reconfig_delay <= _FAST_DELTA_CUTOFF:
            return DEFAULT_FAST_WINDOW
        return DEFAULT_SLOW_WINDOW

    def schedule(self, demand: np.ndarray, params: SwitchParams) -> Schedule:
        """Greedy submodular schedule of ``demand`` within the window."""
        residual = check_demand_matrix(demand)
        delta = params.reconfig_delay
        ocs_rate = params.ocs_rate
        window = self.resolved_window(params)

        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {self.max_steps}")

        entries: list[ScheduleEntry] = []
        clock = 0.0
        self.last_diagnostics = []
        self.last_candidates = self.last_lsap_solves = 0
        n = residual.shape[0]
        step_cap = self.max_steps if self.max_steps is not None else 8 * n + 256

        span = (
            obs.get_tracer().begin(
                "eclipse.schedule", n=n, window_ms=window, step_cap=step_cap
            )
            if obs.active() and obs.get_tracer().enabled
            else None
        )
        # Steps whose clock advance is below float resolution of the window
        # would let the loop run ~forever without ever filling it.
        min_advance = np.finfo(np.float64).eps * max(window, 1.0)
        while residual.max(initial=0.0) > VOLUME_TOL:
            if self.budget is not None and not self.budget.checkpoint(
                "eclipse.step"
            ):
                self._degrade(
                    "deadline",
                    f"wall-clock budget exhausted after {len(entries)} greedy "
                    f"steps with {window - clock:.3g} ms of window unused",
                    len(entries),
                    step_cap,
                    residual,
                )
                break
            available = window - clock - delta
            if available <= 0:
                break
            if len(entries) >= step_cap:
                self._degrade(
                    "step-cap",
                    f"greedy step cap {step_cap} reached with "
                    f"{window - clock:.3g} ms of window unused",
                    len(entries),
                    step_cap,
                    residual,
                )
                break
            best = self._best_step(residual, ocs_rate, delta, available)
            if best is None:
                break
            duration, permutation, served = best
            if duration + delta <= min_advance:
                self._degrade(
                    "clock-stall",
                    f"step advance {duration + delta:.3g} ms is below the "
                    "window's float resolution",
                    len(entries),
                    step_cap,
                    residual,
                )
                break
            residual -= served
            np.clip(residual, 0.0, None, out=residual)
            entries.append(ScheduleEntry(permutation=permutation, duration=duration))
            clock += duration + delta

        if obs.active():
            if span is not None:
                obs.get_tracer().end(
                    span,
                    steps=len(entries),
                    window_used_ms=clock,
                    candidates=self.last_candidates,
                    lsap_solves=self.last_lsap_solves,
                )
            tracer = obs.get_tracer()
            if tracer.enabled:
                # Schedule-quality audit: deterministic decisions only, the
                # alignment record for `obs diff` / the BENCH_obs gate.
                tracer.event(
                    "scheduler.audit",
                    scheduler=self.name,
                    n=n,
                    configs=len(entries),
                    window_used_ms=clock,
                    watchdogs=len(self.last_diagnostics),
                    residual_mb=float(residual.sum()),
                )
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "eclipse_steps_total", "greedy (configuration, duration) steps"
                ).inc(len(entries))
                metrics.counter(
                    "eclipse_schedules_total", "EclipseScheduler.schedule() calls"
                ).inc()
                metrics.counter(
                    "eclipse_lsap_solves_total",
                    "LSAP solves over the greedy's candidate durations",
                ).inc(self.last_lsap_solves)

        return Schedule(entries=tuple(entries), reconfig_delay=delta)

    def _degrade(
        self,
        event: str,
        detail: str,
        iterations: int,
        cap: int,
        residual: np.ndarray,
    ) -> None:
        """Record one watchdog degradation on ``last_diagnostics``."""
        diagnostics = SchedulerDiagnostics(
            scheduler=self.name,
            event=event,
            detail=detail,
            iterations=iterations,
            cap=cap,
            residual=float(residual.sum()),
        )
        self.last_diagnostics.append(diagnostics)
        if obs.active():
            obs.record_watchdog(diagnostics)

    def _best_step(
        self,
        residual: np.ndarray,
        ocs_rate: float,
        delta: float,
        available: float,
    ) -> "tuple[float, np.ndarray, np.ndarray] | None":
        """Best (duration, permutation, served-volume matrix) this step.

        Returns ``None`` when no candidate serves positive volume.
        """
        durations = candidate_durations(
            residual, ocs_rate, available, grid_size=self.grid_size
        )
        self.last_candidates += durations.size
        if kernels.kernels_active():
            return self._best_step_kernel(residual, ocs_rate, delta, durations)
        self.last_lsap_solves += durations.size
        best_rate = 0.0
        best: "tuple[float, np.ndarray, np.ndarray] | None" = None
        for alpha in durations.tolist():
            weights = np.minimum(residual, alpha * ocs_rate)
            assignment, value = max_weight_matching(weights)
            if value <= VOLUME_TOL:
                continue
            rate = value / (alpha + delta)
            if rate > best_rate * (1 + 1e-12):
                rows = np.arange(residual.shape[0])
                served = np.zeros_like(residual)
                served[rows, assignment] = weights[rows, assignment]
                # Prune circuits that carry nothing: they would otherwise
                # read as spurious composite-path assignments downstream.
                permutation = assignment_to_permutation(assignment)
                permutation[served <= VOLUME_TOL] = 0
                best_rate = rate
                best = (alpha, permutation, served)
        return best

    def _best_step_kernel(
        self,
        residual: np.ndarray,
        ocs_rate: float,
        delta: float,
        durations: np.ndarray,
    ) -> "tuple[float, np.ndarray, np.ndarray] | None":
        """Kernel-backend :meth:`_best_step` — bit-identical decisions.

        The oracle solves one LSAP per candidate α in ascending order.  This
        search solves only the candidates that could matter, best first,
        and then runs the oracle's own acceptance rule over the solved ones.

        **Value bounds.**  Let V(α) be the largest assignment value at
        weights ``min(residual, α·Co)``.  Every unsolved candidate k carries
        an upper bound u_k on V(α_k), the least of:

        * the row-max and column-max sums of its weights (each matched
          entry is at most its row's and its column's maximum, and the
          row/col maxes of ``min(residual, cap)`` are
          ``min(max(residual), cap)``);
        * V(α′) of any solved α′ > α_k — V is non-decreasing in α, since
          the weights are;
        * (α_k/α′)·V(α′) of any solved α′ < α_k — entry by entry,
          ``min(x, α·Co) ≤ (α/α′)·min(x, α′·Co)`` for α > α′, and the
          matching that attains V(α) is a candidate matching at α′.

        Candidates with ``cap >= residual.max()`` all have weights
        ``residual`` exactly, so one (deterministic) solve serves them all.
        A candidate whose bound is at most ``VOLUME_TOL`` (with a 1e-9
        margin) would be skipped by the oracle and is never solved; it is
        *not* solved at value 0 either, because a 0 would wrongly bound
        every larger α through the scaling rule.

        **Search.**  Repeatedly solve the unsolved candidate with the
        highest rate bound u_k/(α_k+δ) and tighten its neighbours' bounds,
        until every unsolved candidate satisfies
        ``u_k/(α_k+δ)·(1+1e-9)·(1+1e-12)^(K+1) < B``, where B is the best
        solved rate and K the number of candidates.  The 1e-9 margin
        swamps the summation and LSAP rounding in the bounds, so each
        unsolved rate then lies below ``M/(1+1e-12)^(K+1)``, where M is the
        largest rate of all candidates (and B = M).

        **Why the winner is the oracle's.**  The oracle's rule walks the
        candidates in ascending α, skips ``value <= VOLUME_TOL`` and takes
        a candidate only if its rate exceeds the incumbent's by a factor
        above 1+ε (ε = 1e-12).  Split ``[M/(1+ε)^(K+1), M)`` into K+1
        bands of ratio 1+ε.  At most K−1 rates fall in them (the M
        candidate is above), so some band ``[G, G·(1+ε))`` holds no rate.
        Call a candidate *high* if its rate is at least G·(1+ε), *low*
        otherwise; every unsolved candidate is low.  Run the rule over all
        candidates and, in step, over the solved ones only.  While both
        incumbents are low (or absent), a low candidate keeps them low,
        whichever run takes it.  The first high candidate beats any low
        incumbent (its rate is at least G·(1+ε) > b·(1+ε) for b < G), so
        both runs take it; it is solved, so both see it.  From then on
        both incumbents are the same high candidate, and a low one can
        never displace it, so the two runs agree on every later step and
        end on the same winner.  Only that winner's served-volume and
        permutation matrices are materialised.
        """
        alphas = durations.tolist()
        count = len(alphas)
        caps = durations * ocs_rate
        bounds = np.minimum(
            np.minimum(residual.max(axis=1), caps[:, None]).sum(axis=1),
            np.minimum(residual.max(axis=0), caps[:, None]).sum(axis=1),
        )
        spans = durations + delta
        saturated = caps >= residual.max()
        solved = np.zeros(count, dtype=bool)
        results: "dict[int, tuple[np.ndarray, float]]" = {}
        margin = (1 + 1e-9) * (1 + 1e-12) ** (count + 1)
        best_rate = 0.0
        while True:
            rate_bounds = np.where(
                solved | (bounds <= VOLUME_TOL * (1 - 1e-9)), -1.0, bounds / spans
            )
            k = int(rate_bounds.argmax())
            if rate_bounds[k] < 0 or rate_bounds[k] * margin < best_rate:
                break
            self.last_lsap_solves += 1
            if saturated[k]:
                result = max_weight_matching(residual)
                group = np.flatnonzero(saturated).tolist()
                k = group[0]
            else:
                result = max_weight_matching(np.minimum(residual, alphas[k] * ocs_rate))
                group = [k]
            solved[group] = True
            results.update(dict.fromkeys(group, result))
            value = result[1]
            if value > VOLUME_TOL:
                best_rate = max(best_rate, value / (alphas[k] + delta))
            # k is the smallest α solved: bound the rest from both sides.
            np.minimum(bounds[:k], value, out=bounds[:k])
            np.minimum(
                bounds[k + 1 :],
                value * (durations[k + 1 :] / alphas[k]),
                out=bounds[k + 1 :],
            )
        best_rate = 0.0
        best: "int | None" = None
        for k in sorted(results):
            value = results[k][1]
            if value <= VOLUME_TOL:
                continue
            rate = value / (alphas[k] + delta)
            if rate > best_rate * (1 + 1e-12):
                best_rate = rate
                best = k
        if best is None:
            return None
        alpha = alphas[best]
        assignment = results[best][0]
        weights = np.minimum(residual, alpha * ocs_rate)
        rows = np.arange(residual.shape[0])
        served = np.zeros_like(residual)
        served[rows, assignment] = weights[rows, assignment]
        permutation = assignment_to_permutation(assignment)
        permutation[served <= VOLUME_TOL] = 0
        return alpha, permutation, served

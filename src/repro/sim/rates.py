"""Max-min fair rate allocation for the EPS fabric.

The EPS can send from any port to any port simultaneously (§1), limited by
each input and output link's rate ``Ce``.  Among the demand entries it
serves concurrently, the simulator allocates **max-min fair** rates — the
classic water-filling allocation, which is what per-VOQ fair queueing on a
crossbar converges to.  (The packet-level cross-check in
:mod:`repro.sim.packetlevel` validates the abstraction.)

The algorithm is progressive filling over one fused port vector: inputs
first, then outputs, so a flow is the pair of port indices ``(row,
n_in + col)``.  All unfrozen flows grow at the same rate until some port
saturates; flows through saturated ports freeze at the common level;
repeat.  A round is a fixed handful of numpy calls on arrays of at most
``n_in + n_out`` ports and ``2E`` flow endpoints — one ``bincount``, one
division, one ``min``, the capacity update, the saturation test and one
gather that freezes flows from both sides — and every round saturates at
least one port, so there are at most ``n_in + n_out`` rounds.  Each
port's remaining capacity sees the same IEEE operations in the same order
as a per-side formulation would apply, and a flow's rate is the scalar
running level ``0 + s₁ + s₂ + …`` at the round it froze, so the result
does not depend on how the rounds are vectorised.
"""

from __future__ import annotations

import numpy as np

_RATE_TOL = 1e-12


def max_min_fair_rates(
    rows: np.ndarray,
    cols: np.ndarray,
    in_capacity: np.ndarray,
    out_capacity: np.ndarray,
) -> np.ndarray:
    """Max-min fair rates for flows ``(rows[k], cols[k])``.

    Parameters
    ----------
    rows, cols:
        Flow endpoints: flow ``k`` goes from input ``rows[k]`` to output
        ``cols[k]``.  Multiple flows may share endpoints.  Must lie in
        ``[0, n_in)`` and ``[0, n_out)``.
    in_capacity, out_capacity:
        1-D per-port available capacities (Mb/ms), finite and
        non-negative.  May be zero (e.g. a link fully reserved by a
        composite path), in which case flows through that port get rate 0.

    Returns
    -------
    Array of per-flow rates (Mb/ms), same length as ``rows``.  The
    allocation saturates every bottleneck port: no flow can be sped up
    without slowing a flow of equal or lower rate.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError("rows and cols must be 1-D arrays of equal length")
    in_capacity = np.asarray(in_capacity, dtype=np.float64)
    out_capacity = np.asarray(out_capacity, dtype=np.float64)
    if in_capacity.ndim != 1 or out_capacity.ndim != 1:
        raise ValueError(
            f"capacities must be 1-D per-port vectors, got in_capacity shape "
            f"{in_capacity.shape} and out_capacity shape {out_capacity.shape}"
        )
    n_in = in_capacity.size
    n_ports = n_in + out_capacity.size
    # Remaining capacity of every port: inputs, then outputs (a copy).
    rem = np.concatenate((in_capacity, out_capacity))
    if n_ports:
        lowest, highest = rem.min(), rem.max()
        if not (np.isfinite(lowest) and np.isfinite(highest)):
            raise ValueError(
                "capacities must be finite: a port without a limit has no "
                "max-min share; pass its line rate instead of inf/nan"
            )
        if lowest < -_RATE_TOL:
            raise ValueError("capacities must be non-negative")
    n_flows = rows.size
    if n_flows == 0:
        return np.zeros(0, dtype=np.float64)
    # Negative ids wrap to huge unsigned values, so one max per side
    # bounds-checks both ends.
    if rows.view(np.uint64).max() >= n_in or cols.view(np.uint64).max() >= n_ports - n_in:
        raise ValueError(
            f"flow endpoints out of range: rows must lie in [0, {n_in}) and "
            f"cols in [0, {n_ports - n_in}) for the given capacity vectors"
        )

    ends = np.concatenate((rows, cols + n_in)).reshape(2, n_flows)
    count = np.bincount(ends.ravel(), minlength=n_ports)
    # A port without flows (or, below, one that saturated and froze all of
    # its flows) gets infinite remaining capacity: its share ``rem / 0`` is
    # then +inf instead of nan, and it can never test as saturated again.
    # Orphaned ports (every flow frozen at its other end) keep a remainder
    # above the saturation tolerance, so they share +inf and stay
    # unsaturated too.  Negative remainders (capacities within tolerance
    # of zero, overshoot of the bottleneck) are never clamped: every such
    # port tests saturated in the same round, exactly as a clamp to zero
    # would.
    rem[count == 0] = np.inf
    # The level at which each port saturated; a flow freezes at the first
    # of its two ports to saturate, and levels never decrease.
    sat_level = np.full(n_ports, np.inf)
    level = 0.0
    active = ends
    with np.errstate(divide="ignore"):
        while True:
            step = (rem / count).min()
            if step > _RATE_TOL:
                level = level + step
                rem -= step * count
            saturated = rem <= _RATE_TOL * count
            rem[saturated] = np.inf
            sat_level[saturated] = level
            hit = saturated[active]
            n_active = active.shape[1]
            active = active.compress(~(hit[0] | hit[1]), axis=1)
            if active.shape[1] in (0, n_active):
                # Done, or no port saturated: the bottleneck kept a
                # rounding remainder above the tolerance (an ulp of a large
                # capacity), and the active flows stop at the level.
                break
            count = np.bincount(active.ravel(), minlength=n_ports)
    at_ends = sat_level[ends]
    rates = np.minimum(at_ends[0], at_ends[1])
    if active.shape[1]:
        np.minimum(rates, level, out=rates)
    return rates


def max_min_fair_rate_matrix(
    active: np.ndarray,
    in_capacity: np.ndarray,
    out_capacity: np.ndarray,
) -> np.ndarray:
    """Matrix-shaped convenience wrapper over :func:`max_min_fair_rates`.

    ``active`` is a boolean n_in×n_out mask of flows to serve; the result is
    a rate matrix of the same shape (zero where inactive).
    """
    active = np.asarray(active, dtype=bool)
    rates = np.zeros(active.shape, dtype=np.float64)
    rows, cols = np.nonzero(active)
    if rows.size:
        rates[rows, cols] = max_min_fair_rates(rows, cols, in_capacity, out_capacity)
    return rates

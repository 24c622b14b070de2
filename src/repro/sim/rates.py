"""Max-min fair rate allocation for the EPS fabric.

The EPS can send from any port to any port simultaneously (§1), limited by
each input and output link's rate ``Ce``.  Among the demand entries it
serves concurrently, the simulator allocates **max-min fair** rates — the
classic water-filling allocation, which is what per-VOQ fair queueing on a
crossbar converges to.  (The packet-level cross-check in
:mod:`repro.sim.packetlevel` validates the abstraction.)

The algorithm is vectorized progressive filling: all unfrozen flows grow at
the same rate until some port saturates; flows through saturated ports
freeze; repeat.  Each round saturates at least one port, so there are at
most ``2n`` rounds of O(E) numpy work.
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
        ``cols[k]``.  Multiple flows may share endpoints.
    in_capacity, out_capacity:
        Per-port available capacities (Mb/ms).  May be zero (e.g. a link
        fully reserved by a composite path), in which case flows through
        that port get rate 0.

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
    n_flows = rows.size
    rates = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0:
        return rates

    n_in = int(in_capacity.shape[0])
    n_out = int(out_capacity.shape[0])
    in_rem = np.asarray(in_capacity, dtype=np.float64).copy()
    out_rem = np.asarray(out_capacity, dtype=np.float64).copy()
    if np.any(in_rem < -_RATE_TOL) or np.any(out_rem < -_RATE_TOL):
        raise ValueError("capacities must be non-negative")
    np.maximum(in_rem, 0.0, out=in_rem)
    np.maximum(out_rem, 0.0, out=out_rem)

    # Active-flow arrays shrink as flows freeze, so later rounds touch
    # progressively less data.  Each round saturates at least one port, so
    # the loop runs at most n_in + n_out times.
    active_idx = np.arange(n_flows)
    active_rows = rows
    active_cols = cols
    for _round in range(n_in + n_out + 1):
        if active_idx.size == 0:
            break
        in_count = np.bincount(active_rows, minlength=n_in)
        out_count = np.bincount(active_cols, minlength=n_out)
        with np.errstate(divide="ignore", invalid="ignore"):
            in_share = np.where(in_count > 0, in_rem / np.maximum(in_count, 1), np.inf)
            out_share = np.where(out_count > 0, out_rem / np.maximum(out_count, 1), np.inf)
        step = min(in_share.min(), out_share.min())
        if step > _RATE_TOL and np.isfinite(step):
            rates[active_idx] += step
            in_rem -= step * in_count
            out_rem -= step * out_count
            np.maximum(in_rem, 0.0, out=in_rem)
            np.maximum(out_rem, 0.0, out=out_rem)
        # Freeze flows through ports that are now saturated (or whose
        # remaining capacity is below one per-flow tolerance share — such
        # ports would otherwise stall the filling loop with sub-tolerance
        # steps forever).
        in_saturated = (in_rem <= _RATE_TOL * np.maximum(in_count, 1)) & (in_count > 0)
        out_saturated = (out_rem <= _RATE_TOL * np.maximum(out_count, 1)) & (out_count > 0)
        frozen_now = in_saturated[active_rows] | out_saturated[active_cols]
        if not frozen_now.any():
            # No port saturated: all remaining shares were infinite, which
            # cannot happen while counts are positive; defensive break.
            break
        keep = ~frozen_now
        active_idx = active_idx[keep]
        active_rows = active_rows[keep]
        active_cols = active_cols[keep]
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

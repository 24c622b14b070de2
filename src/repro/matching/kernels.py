"""Fast matching kernels and the ``REPRO_KERNELS`` backend switch.

The h-Switch hot path (Solstice's BigSlice threshold search, Eclipse's
greedy duration search) is dominated by bipartite-matching calls.  This
module provides the *kernel* implementations of the Solstice calls:

* :class:`WarmMatcher` — a warm-startable perfect-matching **feasibility**
  oracle over thresholded masks of a live (mutating) matrix.  It keeps the
  last perfect matching it found and, for each probe, only repairs the few
  pairs that crossed the probed threshold, fetching row adjacency lazily
  (``O(row)`` per visited row) instead of materialising a dense ``n×n``
  mask per probe.  Feasibility verdicts are exact — perfect-matching
  existence does not depend on which maximum matching an algorithm finds —
  so any caller that only branches on feasibility stays bit-identical to
  the pure-Python oracle.
* :func:`scipy_matching_mask` — the same scipy Hopcroft–Karp call as
  :func:`repro.matching.hopcroft_karp.maximum_matching_mask`, but through
  a recycled CSR container that skips scipy's Python-level constructor
  validation (the dominant per-call cost at Solstice's probe frequency).
  The compiled routine sees byte-identical CSR arrays, so the returned
  matching is bit-identical to the plain wrapper's.

Eclipse's kernel path needs no kernel here: it calls the same dense LSAP
(:func:`repro.matching.max_weight.max_weight_matching`) on the same
weights, but solves only the candidate durations whose value bounds
(row/col maxima, and the values of solved neighbours) leave them a chance
to win — about one in six on Figure 6's radix-128 demands — and then
applies the oracle's own acceptance rule
(:meth:`repro.hybrid.eclipse.scheduler.EclipseScheduler._best_step_kernel`).

Backend selection
-----------------
``REPRO_KERNELS=kernel`` (the default) routes the schedulers through the
kernels; ``REPRO_KERNELS=oracle`` forces the original pure-Python/seed
code paths, which stay in the tree as correctness oracles.  The CI gate
records an ``obs baseline`` under the oracle backend and ``obs check``-s
the kernel backend against it: any schedule-quality drift — one slice
count, one makespan ulp — fails the build.  Pinned schedule and engine
digests (``tests/test_eclipse_identity.py``,
``tests/test_engine_identity.py``) run under both backends.

Numba
-----
When :mod:`numba` is importable, :func:`maybe_jit` compiles the hot inner
loops (QuickStuff's pass-1 scan); without it the decorator is a no-op and
the pure-Python loops run unchanged.  Numba is optional and never
required for correctness.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

try:  # scipy backend for the exact-matching call; optional at import time
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching as _scipy_matching
except ImportError:  # pragma: no cover - scipy is a hard dependency in CI
    _csr_matrix = None
    _scipy_matching = None

try:  # optional JIT for the sequential inner loops
    import numba as _numba
except ImportError:  # pragma: no cover - exercised wherever numba is absent
    _numba = None

#: Whether the optional numba JIT is available in this environment.
NUMBA_AVAILABLE: bool = _numba is not None

#: Whether scipy's compiled matching backend is importable.
SCIPY_AVAILABLE: bool = _scipy_matching is not None

#: Environment variable naming the active backend.
BACKEND_ENV: str = "REPRO_KERNELS"

#: The fast path: sparse/warm-start kernels (default).
KERNEL: str = "kernel"

#: The reference path: the original pure-Python/seed implementations.
ORACLE: str = "oracle"

_VALID_BACKENDS: "tuple[str, ...]" = (KERNEL, ORACLE)

#: Process-local override taking precedence over the environment.
_override: "str | None" = None


def maybe_jit(func):
    """``numba.njit(cache=True)`` when numba is available, else identity.

    The decorated loops are written so that the JIT-compiled and
    interpreted versions perform operation-for-operation identical float64
    arithmetic — numba only removes interpreter overhead.
    """
    if _numba is not None:  # pragma: no cover - numba not in the CI image
        return _numba.njit(cache=True)(func)
    return func


def backend() -> str:
    """The active kernel backend: :data:`KERNEL` or :data:`ORACLE`."""
    if _override is not None:
        return _override
    raw = os.environ.get(BACKEND_ENV, KERNEL).strip().lower()
    if raw not in _VALID_BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV}={raw!r} is not a valid backend; "
            f"expected one of {_VALID_BACKENDS}"
        )
    return raw


def set_backend(name: "str | None") -> None:
    """Set (or with ``None`` clear) the process-local backend override."""
    global _override
    if name is not None:
        name = name.strip().lower()
        if name not in _VALID_BACKENDS:
            raise ValueError(
                f"unknown backend {name!r}; expected one of {_VALID_BACKENDS}"
            )
    _override = name


@contextmanager
def use_backend(name: str):
    """Context manager pinning the backend for a ``with`` block."""
    global _override
    previous = _override
    set_backend(name)
    try:
        yield
    finally:
        _override = previous


def kernels_active() -> bool:
    """Whether the fast kernel backend is selected."""
    return backend() == KERNEL


# ---------------------------------------------------------------------- #
# QuickStuff pass-1 kernel
# ---------------------------------------------------------------------- #


@maybe_jit
def _stuff_pass1_compiled(added, rows, cols, row_sums, col_sums, phi):
    # Same operation-for-operation arithmetic as the interpreted loop in
    # quick_stuff_pass1 below: min of two float64 differences, one addition
    # per side.  numba only strips interpreter overhead.
    for k in range(rows.shape[0]):
        i = rows[k]
        j = cols[k]
        slack = phi - row_sums[i]
        other = phi - col_sums[j]
        if other < slack:
            slack = other
        if slack > 0.0:
            added[k] = slack
            row_sums[i] += slack
            col_sums[j] += slack


def quick_stuff_pass1(
    rows: np.ndarray,
    cols: np.ndarray,
    row_sums: np.ndarray,
    col_sums: np.ndarray,
    phi: float,
) -> np.ndarray:
    """QuickStuff's sequential non-zero pass: absorb slack, largest first.

    Walks the (row, col) entries in the caller's order, adding to each the
    largest volume that keeps both its row and column sum at most ``phi``.
    ``row_sums``/``col_sums`` are updated **in place**; the per-entry
    additions are returned aligned with ``rows``/``cols``.

    The scan is inherently sequential (each entry's slack depends on the
    updates before it).  With numba it runs compiled; otherwise it runs
    over plain Python floats — an order of magnitude cheaper than numpy
    scalar indexing — with bit-identical float64 arithmetic either way.
    """
    if NUMBA_AVAILABLE:  # pragma: no cover - numba not in the CI image
        added = np.zeros(rows.shape[0], dtype=np.float64)
        _stuff_pass1_compiled(added, rows, cols, row_sums, col_sums, phi)
        return added
    rs = row_sums.tolist()
    cs = col_sums.tolist()
    row_list = rows.tolist()
    col_list = cols.tolist()
    added = [0.0] * len(row_list)
    for k, (i, j) in enumerate(zip(row_list, col_list)):
        ri, cj = rs[i], cs[j]
        slack = min(phi - ri, phi - cj)
        if slack > 0:
            added[k] = slack
            rs[i] = ri + slack
            cs[j] = cj + slack
    row_sums[:] = rs
    col_sums[:] = cs
    return np.asarray(added, dtype=np.float64)


# ---------------------------------------------------------------------- #
# recycled-CSR scipy matching
# ---------------------------------------------------------------------- #


class _CsrScratch:
    """A reusable CSR container fed fresh index arrays on every call.

    ``scipy.sparse.csr_matrix((data, indices, indptr))`` spends most of its
    time in Python-level validation (``check_format``, index-dtype
    resolution, pruning) that is pure overhead when the caller constructs
    canonical CSR arrays itself.  This scratch builds one csr_matrix and
    thereafter swaps its ``data``/``indices``/``indptr`` attributes in
    place — the compiled csgraph routine reads exactly those arrays, so
    results are identical to a fresh construction.
    """

    def __init__(self) -> None:
        self._graph = None
        self._ones = np.ones(0, dtype=np.int8)

    def matching(self, mask: np.ndarray) -> np.ndarray:
        """``maximum_bipartite_matching(csr(mask), perm_type="column")``."""
        n_rows, n_cols = mask.shape
        indices = np.flatnonzero(mask).astype(np.int32)
        indptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(mask.sum(axis=1, dtype=np.int32), out=indptr[1:])
        indices %= n_cols
        return self.matching_csr(indices, indptr, (n_rows, n_cols))

    def matching_csr(
        self,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: "tuple[int, int]",
    ) -> np.ndarray:
        """Matching from caller-built canonical CSR index arrays.

        ``indices`` must be int32 column ids in row-major order (sorted
        within each row) and ``indptr`` the int32 row pointer — exactly
        what ``csr_matrix(mask)`` would hold, so the compiled matcher sees
        byte-identical inputs.
        """
        if self._ones.size < indices.size:
            self._ones = np.ones(max(indices.size, 256), dtype=np.int8)
        data = self._ones[: indices.size]
        if self._graph is None:
            self._graph = _csr_matrix(
                (data, indices, indptr), shape=shape
            )
        else:
            graph = self._graph
            graph.data = data
            graph.indices = indices
            graph.indptr = indptr
            graph._shape = (int(shape[0]), int(shape[1]))
        return np.asarray(
            _scipy_matching(self._graph, perm_type="column"), dtype=np.int64
        )


_scratch = _CsrScratch()


def scipy_matching_mask(mask: np.ndarray) -> "tuple[np.ndarray, int]":
    """Maximum matching of a boolean mask via scipy, recycling the CSR.

    Bit-identical to the scipy path of
    :func:`repro.matching.hopcroft_karp.maximum_matching_mask` — same CSR
    arrays, same compiled Hopcroft–Karp — at a fraction of the per-call
    constructor overhead.  Falls back to that wrapper when scipy is
    unavailable.
    """
    mask = np.asarray(mask, dtype=bool)
    if _scipy_matching is None:  # pragma: no cover - scipy always in CI
        from repro.matching.hopcroft_karp import maximum_matching_mask

        return maximum_matching_mask(mask)
    match_left = _scratch.matching(mask)
    return match_left, int((match_left != -1).sum())


def scipy_matching_csr(
    indices: np.ndarray, indptr: np.ndarray, n: int
) -> "tuple[np.ndarray, int]":
    """Maximum matching of an n×n biadjacency given as canonical CSR arrays.

    Same contract as :meth:`_CsrScratch.matching_csr`: the caller supplies
    the exact index arrays ``csr_matrix(mask)`` would hold, so the result
    is bit-identical to :func:`scipy_matching_mask` on that mask — without
    ever materialising the dense mask.  Callers that track the nonzero
    structure of a shrinking matrix (BigSlice) build these in O(nnz).
    """
    match_left = _scratch.matching_csr(indices, indptr, (n, n))
    return match_left, int((match_left != -1).sum())


# ---------------------------------------------------------------------- #
# warm-start feasibility matcher
# ---------------------------------------------------------------------- #


class WarmMatcher:
    """Perfect-matching feasibility probes over ``matrix >= threshold``.

    The matcher holds a reference to a **live** matrix (the caller may
    mutate entries between probes, as Solstice's slicing loop does) and the
    last perfect matching it certified.  Each :meth:`feasible` probe copies
    that matching, drops pairs whose entries fell below the probed
    threshold, and re-augments only the deficient rows with an iterative
    Kuhn search over lazily-fetched row adjacency.  An infeasible probe
    leaves the stored matching untouched, so a failed high probe never
    degrades the warm start for the lower probes that follow.

    Only the feasibility *verdict* is exposed; internal matchings are
    arbitrary maximum matchings and deliberately never leak into schedule
    output (the exact permutation the schedulers publish always comes from
    the same scipy call the oracle path makes).
    """

    def __init__(self, matrix: np.ndarray) -> None:
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square 2-D, got {matrix.shape}")
        self.matrix = matrix
        self.n = matrix.shape[0]
        self._match_left = np.full(self.n, -1, dtype=np.int64)
        self._match_right = np.full(self.n, -1, dtype=np.int64)

    def seed(self, match_left: np.ndarray) -> None:
        """Adopt a known matching (e.g. the slice just published) as warm start."""
        ml = np.asarray(match_left, dtype=np.int64)
        self._match_left = ml.copy()
        self._match_right = np.full(self.n, -1, dtype=np.int64)
        matched = np.flatnonzero(ml >= 0)
        self._match_right[ml[matched]] = matched

    def feasible(
        self,
        threshold: float,
        budget: "int | None" = None,
        max_free: "int | None" = None,
    ) -> "bool | None":
        """Whether ``matrix >= threshold`` admits a perfect matching.

        ``max_free`` bounds how many deficient rows the warm repair will
        take on, and ``budget`` caps the total row expansions (adjacency
        fetches) it may spend.  When the warm matching is close to valid at
        ``threshold`` the repair finishes in a handful of expansions; a
        probe past either limit is a *restructuring* — interpreted Kuhn
        would crawl through a deep search forest — and the method returns
        ``None`` so the caller can re-ask a compiled matcher.  Verdicts
        (``True``/``False``) are always exact.
        """
        matrix = self.matrix
        ml = self._match_left.copy()
        mr = self._match_right.copy()
        matched = np.flatnonzero(ml >= 0)
        if matched.size:
            stale = matched[matrix[matched, ml[matched]] < threshold]
            if stale.size:
                mr[ml[stale]] = -1
                ml[stale] = -1
        free = np.flatnonzero(ml < 0)
        if free.size:
            # Cheap Hall pre-check: a free row with no admissible entry can
            # never be matched; bail before building any search forest.
            if (matrix[free].max(axis=1) < threshold).any():
                return False
            if max_free is not None and free.size > max_free:
                return None
            remaining = budget if budget is not None else -1
            for root in free.tolist():
                verdict, remaining = self._augment(
                    root, threshold, ml, mr, remaining
                )
                if verdict is not True:
                    return verdict
        self._match_left = ml
        self._match_right = mr
        return True

    def _augment(
        self,
        root: int,
        threshold: float,
        ml: np.ndarray,
        mr: np.ndarray,
        budget: int,
    ) -> "tuple[bool | None, int]":
        """One iterative Kuhn augmentation from ``root``.

        Returns the verdict plus the budget left: ``True`` = augmented,
        ``False`` = no augmenting path, ``None`` = budget exhausted
        (``budget < 0`` means unlimited).  Kuhn's invariant makes a False
        verdict final: if no augmenting path exists from a free row under
        the current matching, none will exist after other rows augment, so
        the caller may declare infeasibility immediately.
        """
        if budget == 0:
            return None, 0
        matrix = self.matrix
        visited = np.zeros(self.n, dtype=bool)
        # Frames: [row, neighbour array, next index, edge column taken].
        neighbours = np.flatnonzero(matrix[root] >= threshold)
        budget -= 1
        stack: "list[list]" = [[root, neighbours, 0, -1]]
        while stack:
            if budget == 0:
                return None, 0
            frame = stack[-1]
            u, adj, idx = frame[0], frame[1], frame[2]
            descended = False
            while idx < adj.size:
                v = int(adj[idx])
                idx += 1
                if visited[v]:
                    continue
                visited[v] = True
                nxt = int(mr[v])
                if nxt < 0:
                    ml[u] = v
                    mr[v] = u
                    stack.pop()
                    while stack:
                        parent = stack.pop()
                        ml[parent[0]] = parent[3]
                        mr[parent[3]] = parent[0]
                    return True, budget
                frame[2] = idx
                frame[3] = v
                stack.append(
                    [nxt, np.flatnonzero(matrix[nxt] >= threshold), 0, -1]
                )
                budget -= 1
                descended = True
                break
            if not descended:
                stack.pop()
        return False, budget

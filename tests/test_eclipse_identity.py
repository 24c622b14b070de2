"""Bit-exact fingerprints of Eclipse schedules on seeded demands.

The kernel backend prunes and reorders Eclipse's per-candidate LSAP
solves; the oracle backend solves every candidate in ascending order.
Both must publish the same schedule, byte for byte.  These tests hash the
durations and permutations of the h-Switch Eclipse schedule, and of the
cp-Switch schedule built around Eclipse, on seeded ``SkewedWorkload``
demands at the radices Figure 6 uses, and compare the SHA-256 digests
with ones pinned when the scheduler was last known-good.  Run them under
both ``REPRO_KERNELS=kernel`` (the default) and ``REPRO_KERNELS=oracle``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.eclipse.scheduler import EclipseScheduler
from repro.switch.params import fast_ocs_params
from repro.utils.rng import spawn_rngs
from repro.workloads.skewed import SkewedWorkload


def _update(digest, duration: float, *arrays: np.ndarray) -> None:
    digest.update(np.float64(duration).tobytes())
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())


def h_digest(schedule) -> str:
    """SHA-256 over every entry's duration and permutation."""
    digest = hashlib.sha256()
    for entry in schedule.entries:
        _update(digest, entry.duration, entry.permutation)
    return digest.hexdigest()


def cp_digest(schedule) -> str:
    """SHA-256 over a cp-Switch schedule's entries and its reduced schedule."""
    digest = hashlib.sha256()
    for entry in schedule.entries:
        _update(digest, entry.duration, entry.regular, entry.composite_served)
    digest.update(h_digest(schedule.reduced_schedule).encode())
    return digest.hexdigest()


def _skewed(n_ports: int, seed: int):
    params = fast_ocs_params(n_ports)
    (rng,) = spawn_rngs(seed, 1)
    return SkewedWorkload.for_params(params).generate(n_ports, rng).demand, params


#: (radix, seed) -> (h-Switch digest, cp-Switch digest), Eclipse inside.
SCHEDULE_DIGESTS = {
    (64, 11): (
        "a9e4c9769401faef9d1eecd791c7ce24a8431d60b0771254fdea98667311cc3e",
        "4550bcb72f26fafae8b194a1d4a4dc433bae5c3767055fca60ffb842bf56c5ee",
    ),
    (128, 3): (
        "c3069edabe3a2d39bd9dde56ecdd5ca71e188420c5cbf4b54932021b99570254",
        "4455b5b3c90f4e24ac52777e912654c3ea4f3c59ec6c88bb836f64dd70854d18",
    ),
}


@pytest.mark.parametrize("radix,seed", sorted(SCHEDULE_DIGESTS))
def test_eclipse_schedules_are_bit_identical(radix, seed):
    demand, params = _skewed(radix, seed)
    h_schedule = EclipseScheduler().schedule(demand, params)
    cp_schedule = CpSwitchScheduler(EclipseScheduler()).schedule(demand, params)
    # The scenario must exercise the greedy: many steps on the h-Switch
    # demand; the reduced cp-Switch demand takes one or two in the window.
    assert len(h_schedule.entries) > 10 and len(cp_schedule.entries) >= 1
    assert (h_digest(h_schedule), cp_digest(cp_schedule)) == SCHEDULE_DIGESTS[
        (radix, seed)
    ]

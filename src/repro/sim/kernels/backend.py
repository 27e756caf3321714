"""The pluggable kernel-backend abstraction and backend resolution policy.

A *kernel* is the inner firing loop of one SSA algorithm, operating on the
flat arrays of a :class:`~repro.sim.kernels.network.KernelNetwork`: it
consumes pre-drawn randomness from :class:`~repro.sim.kernels.blocks
.RandomBlocks`, records events into :class:`~repro.sim.kernels.buffers
.TrajectoryBuffers`, and checks a compiled :class:`~repro.sim.kernels.plan
.StoppingPlan` after every firing.

A *backend* supplies the kernels:

``numpy``
    The reference implementation (:mod:`.numpy_backend`): interpreted loops
    over Python-native views with numpy buffers; always available, and the
    only backend that runs callback stopping plans.
``numba``
    JIT-compiled kernels (:mod:`.numba_backend`); imported lazily and only
    if the ``numba`` package is installed.  Requesting it without numba
    falls back to ``numpy`` with a warning.  Both backends consume the same
    :class:`RandomBlocks` stream with an identical operation order, so their
    seeded outputs are bit-identical.

:func:`resolve_backend` turns a requested name — usually ``"auto"`` from
:attr:`SimulationOptions.backend` — plus the engine's declared support and
the run's stopping plan into the backend object to use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.kernels.blocks import RandomBlocks
from repro.sim.kernels.buffers import TrajectoryBuffers
from repro.sim.kernels.network import KernelNetwork
from repro.sim.kernels.plan import StoppingPlan
from repro.sim.trajectory import StopReason

__all__ = [
    "BACKEND_NAMES",
    "KernelBackend",
    "KernelJob",
    "KernelOutcome",
    "available_backends",
    "numba_available",
    "get_backend",
    "resolve_backend",
    "validate_backend_request",
    "STOP_EXHAUSTED",
    "STOP_MAX_TIME",
    "STOP_MAX_STEPS",
    "STOP_CONDITION",
    "STOP_INVALID",
]

#: Every selectable backend name, in increasing preference order for "auto".
BACKEND_NAMES = ("numpy", "numba")

# Kernel stop codes (shared by every backend implementation).
STOP_EXHAUSTED = 0
STOP_MAX_TIME = 1
STOP_MAX_STEPS = 2
STOP_CONDITION = 3
STOP_INVALID = 4

_STOP_REASONS = {
    STOP_EXHAUSTED: StopReason.EXHAUSTED,
    STOP_MAX_TIME: StopReason.MAX_TIME,
    STOP_MAX_STEPS: StopReason.MAX_STEPS,
    STOP_CONDITION: StopReason.CONDITION,
}


@dataclass
class KernelJob:
    """Everything one kernel invocation needs, bundled.

    ``counts`` is mutated in place (it carries the final state out);
    ``buffers`` and ``blocks`` are driven by the kernel directly.
    """

    knet: KernelNetwork
    counts: np.ndarray
    plan: StoppingPlan
    buffers: TrajectoryBuffers
    blocks: RandomBlocks
    max_time: float
    max_steps: int
    record_firings: bool
    record_states: bool
    snapshot_stride: int


@dataclass
class KernelOutcome:
    """What a kernel reports back: why it stopped and the run totals.

    A condition stop carries either the index of the satisfied clause or,
    for a callback plan, the ``detail`` string the callback returned.
    """

    stop_code: int
    clause_index: int
    final_time: float
    steps: int
    firing_counts: np.ndarray
    detail: "str | None" = None

    def stop_reason(self, plan: StoppingPlan, method_name: str) -> "tuple[str, str]":
        """Map the stop code to ``(StopReason, stop_detail)``."""
        if self.stop_code == STOP_INVALID:
            raise SimulationError(
                f"{method_name}: invalid (non-finite) waiting time in kernel loop"
            )
        reason = _STOP_REASONS[self.stop_code]
        if self.stop_code != STOP_CONDITION:
            return reason, ""
        if self.detail is not None:
            return reason, self.detail
        return reason, plan.labels[self.clause_index]


class KernelBackend:
    """Base class for kernel providers.

    Subclasses set :attr:`name`, implement :meth:`run` for each kernel name
    in :attr:`kernel_names`, and provide :meth:`propensity_matrix` (used by
    the batched engine and tau-leaping).
    """

    name: str = "abstract"
    #: kernel names this backend implements ("direct", "first-reaction", ...).
    kernel_names: frozenset = frozenset()

    def supports(self, kernel_name: str) -> bool:
        return kernel_name in self.kernel_names

    def run(self, kernel_name: str, job: KernelJob) -> KernelOutcome:
        raise NotImplementedError

    def run_batch(self, job) -> None:
        """Advance a whole batch of lock-step trials to their stops.

        ``job`` is a :class:`~repro.sim.kernels.batch.BatchSweepJob`; results
        (stop codes, clause indices, final counts/times/firings) are left in
        its buffers.  Both implementations follow the determinism contract in
        :mod:`repro.sim.kernels.batch`, so seeded batches are bit-identical
        across backends.
        """
        raise NotImplementedError

    def propensity_matrix(self, knet: KernelNetwork, counts: np.ndarray) -> np.ndarray:
        """Propensities of every reaction for every count row."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# backend registry / resolution
# ---------------------------------------------------------------------------

_numpy_backend: "KernelBackend | None" = None
_numba_backend: "KernelBackend | None | bool" = None  # False = probed, unavailable


def _load_numpy() -> KernelBackend:
    global _numpy_backend
    if _numpy_backend is None:
        from repro.sim.kernels.numpy_backend import NumpyKernelBackend

        _numpy_backend = NumpyKernelBackend()
    return _numpy_backend


def _load_numba() -> "KernelBackend | None":
    global _numba_backend
    if _numba_backend is None:
        from repro.sim.kernels.numba_backend import load_numba_backend

        _numba_backend = load_numba_backend() or False
    return _numba_backend or None


def numba_available() -> bool:
    """Whether the numba JIT backend can be loaded in this environment."""
    return _load_numba() is not None


def available_backends() -> tuple[str, ...]:
    """The backend names usable right now (``numba`` only if importable)."""
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    return tuple(names)


def get_backend(name: str) -> KernelBackend:
    """Resolve a backend name to its object.

    Requesting ``numba`` in an environment without numba warns and returns
    the numpy backend — the documented auto-fallback.
    """
    if name == "numpy":
        return _load_numpy()
    if name == "numba":
        backend = _load_numba()
        if backend is None:
            warnings.warn(
                "numba backend requested but numba is not installed; "
                "falling back to the numpy backend",
                RuntimeWarning,
                stacklevel=2,
            )
            return _load_numpy()
        return backend
    raise SimulationError(
        f"unknown kernel backend {name!r}; available: {list(BACKEND_NAMES)}"
    )


def validate_backend_request(
    requested: str, engine_backends: "tuple[str, ...]", engine_name: str
) -> None:
    """Reject a backend name the engine does not declare (``auto`` always passes)."""
    if requested == "auto":
        return
    if requested not in BACKEND_NAMES:
        raise SimulationError(
            f"unknown kernel backend {requested!r}; available: {list(BACKEND_NAMES)}"
        )
    if requested not in engine_backends:
        supported = ", ".join(engine_backends) if engine_backends else "none"
        raise SimulationError(
            f"engine {engine_name!r} does not support backend {requested!r} "
            f"(supported: {supported})"
        )


def resolve_backend(
    requested: str,
    engine_backends: "tuple[str, ...]",
    engine_name: str,
    plan: StoppingPlan,
    kernel_name: "str | None" = None,
) -> KernelBackend:
    """Pick the backend for one run of ``kernel_name`` under ``plan``.

    ``auto`` picks numba when the engine declares it, numba is installed and
    the plan is a clause table, and numpy otherwise.  Explicit requests are
    validated against the engine's declared backends and never silently
    downgraded: ``numba`` with a callback plan raises (the only downgrade is
    the documented numba→numpy fallback when numba is not installed).
    ``kernel_name=None`` asks for a backend's batch sweep and propensity
    matrix, which every backend provides.
    """
    validate_backend_request(requested, engine_backends, engine_name)
    if requested == "auto":
        if plan.callback is None and "numba" in engine_backends:
            backend = _load_numba()
            if backend is not None and (
                kernel_name is None or backend.supports(kernel_name)
            ):
                return backend
        return _load_numpy()
    if requested == "numba" and plan.callback is not None:
        raise SimulationError(
            f"backend 'numba' cannot run this stopping condition: "
            f"{type(plan.callback).__name__} compiles to a Python callback, which "
            "only the numpy kernels evaluate; use backend='numpy' or 'auto', or a "
            "clause-table condition (species/outcome thresholds, firing counts, "
            "any-of combinations of them)"
        )
    backend = get_backend(requested)
    if kernel_name is not None and not backend.supports(kernel_name):
        raise SimulationError(
            f"backend {backend.name!r} does not implement the {kernel_name!r} kernel"
        )
    return backend

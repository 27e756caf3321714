"""Gillespie's direct method (the standard SSA).

At each step the algorithm draws the waiting time to the next reaction from an
exponential distribution with rate equal to the total propensity, and selects
which reaction fires with probability proportional to its propensity
(Gillespie 1977, cited as [6] in the paper).

The ``direct`` kernel (:mod:`repro.sim.kernels`) keeps the propensity vector
incrementally up to date: after a firing, only the propensities of reactions
that share a species with the fired reaction are recomputed (using the
dependency lists prepared by :class:`~repro.sim.propensity.CompiledNetwork`).
For the networks in this paper (tens of reactions) that is the dominant cost
of a run.
"""

from __future__ import annotations

from repro.sim.base import StochasticSimulator
from repro.sim.registry import register_engine

__all__ = ["DirectMethodSimulator"]


@register_engine(
    "direct",
    exact=True,
    summary="Gillespie direct method with incremental propensity updates",
)
class DirectMethodSimulator(StochasticSimulator):
    """Exact SSA via Gillespie's direct method with incremental propensity updates.

    Runs the ``direct`` kernel: incremental dependent updates, a full re-sum
    of the propensity vector after every firing (the synthesis method mixes
    rates many orders of magnitude apart, and an incrementally maintained
    total drifts enough to corrupt selection once only slow reactions
    remain), and CDF-inversion selection with a largest-propensity fallback.
    """

    method_name = "direct"
    kernel_name = "direct"

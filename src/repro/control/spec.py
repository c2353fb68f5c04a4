"""Declarative configuration for the control plane.

A :class:`ControlSpec` rides on a scenario
(:class:`repro.scenarios.spec.Scenario` carries it in its ``control``
field) and serializes to/from plain dicts like every other spec, so a
governed scenario can live in files, CI configs, and bug reports.  The
spec deliberately mirrors the subsystem split: ``epoch_ms`` paces the
telemetry sampler, :class:`GovernorSpec` tunes policy hot-swapping,
:class:`BalancerSpec` tunes tenant memory rebalancing; leaving either
sub-spec out disables that half of the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Spec

__all__ = ["BalancerSpec", "ControlSpec", "GovernorSpec"]


@dataclass(frozen=True, slots=True)
class GovernorSpec(Spec):
    """Tuning for the adaptive prefetcher governor.

    ``policies`` is the candidate set in probe order (the scenario's
    chosen prefetcher should be first or at least present — the plane
    inserts it at the front if missing).  ``min_dwell_epochs`` and
    ``score_margin`` are the hysteresis: a policy runs for at least the
    dwell before any swap, and an explored alternative must beat the
    incumbent's smoothed score by the margin to take over.
    ``probe_score`` is the desperation threshold under which unexplored
    policies are tried; ``ewma_alpha`` smooths epoch scores;
    ``min_faults`` is the window size under which an epoch is too quiet
    to score at all.  A score not refreshed for ``stale_epochs`` no
    longer counts as evidence: the policy returns to the unexplored
    pool, so a regime change after its last audition gets it re-probed
    instead of judged on history from a world that no longer exists.
    """

    policies: tuple[str, ...] = ("leap", "readahead", "ghb")
    min_dwell_epochs: int = 3
    score_margin: float = 0.1
    probe_score: float = 0.5
    ewma_alpha: float = 0.5
    min_faults: int = 8
    stale_epochs: int = 12

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("governor needs at least one candidate policy")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError(f"duplicate governor policies: {self.policies}")
        if self.min_dwell_epochs < 1:
            raise ValueError(
                f"min_dwell_epochs must be >= 1, got {self.min_dwell_epochs}"
            )
        if self.score_margin < 0:
            raise ValueError(f"score_margin must be >= 0, got {self.score_margin}")
        if not 0.0 <= self.probe_score <= 1.0:
            raise ValueError(f"probe_score must be in [0, 1], got {self.probe_score}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.min_faults < 1:
            raise ValueError(f"min_faults must be >= 1, got {self.min_faults}")
        if self.stale_epochs < self.min_dwell_epochs:
            raise ValueError(
                f"stale_epochs must be >= min_dwell_epochs, got {self.stale_epochs}"
            )


@dataclass(frozen=True, slots=True)
class BalancerSpec(Spec):
    """Tuning for the tenant memory balancer.

    Each epoch the balancer may transfer one step of local-memory
    budget from the tenant whose marginal page buys the least (lowest
    major-fault pressure per budgeted page) to the tenant under the
    highest pressure.  ``floor_fraction``/``ceiling_fraction`` bound
    every tenant's limit as a fraction of its own working set;
    ``step_fraction`` sizes the transfer relative to the donor's
    current limit; ``pressure_gap`` is the hysteresis — the receiver's
    pressure must exceed the donor's by this relative margin before a
    single page moves.
    """

    step_fraction: float = 0.1
    floor_fraction: float = 0.2
    ceiling_fraction: float = 0.9
    pressure_gap: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.step_fraction <= 0.5:
            raise ValueError(
                f"step_fraction must be in (0, 0.5], got {self.step_fraction}"
            )
        if not 0.0 < self.floor_fraction < 1.0:
            raise ValueError(
                f"floor_fraction must be in (0, 1), got {self.floor_fraction}"
            )
        if not self.floor_fraction < self.ceiling_fraction <= 1.0:
            raise ValueError(
                f"ceiling_fraction must be in (floor_fraction, 1], "
                f"got {self.ceiling_fraction}"
            )
        if self.pressure_gap < 0:
            raise ValueError(f"pressure_gap must be >= 0, got {self.pressure_gap}")


@dataclass(frozen=True, slots=True)
class ControlSpec(Spec):
    """The control-plane half of a scenario declaration."""

    epoch_ms: float = 1.0
    governor: GovernorSpec | None = None
    balancer: BalancerSpec | None = None

    def __post_init__(self) -> None:
        if self.epoch_ms <= 0:
            raise ValueError(f"epoch_ms must be positive, got {self.epoch_ms}")
        if self.governor is None and self.balancer is None:
            raise ValueError(
                "ControlSpec needs a governor, a balancer, or both "
                "(an empty control plane would only add overhead)"
            )

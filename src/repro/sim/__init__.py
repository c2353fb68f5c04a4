"""Simulation engine: clock, RNG, units, machine assembly, run loop.

Only the dependency-free primitives are re-exported here; the machine
factory, the event loop and the entry points live in
:mod:`repro.sim.machine`, :mod:`repro.sim.run`,
:mod:`repro.sim.scheduler` and :mod:`repro.sim.simulate` (imported lazily to
keep ``repro.sim`` free of cycles — every substrate imports
``repro.sim.units``).
"""

from repro.sim.clock import ClockError, VirtualClock
from repro.sim.rng import SimRandom, derive_seed
from repro.sim.units import PAGE_SIZE, gb, kb, mb, ms, ns, seconds, to_ms, to_seconds, to_us, us

__all__ = [
    "ClockError",
    "PAGE_SIZE",
    "SimRandom",
    "VirtualClock",
    "derive_seed",
    "gb",
    "kb",
    "mb",
    "ms",
    "ns",
    "seconds",
    "to_ms",
    "to_seconds",
    "to_us",
    "us",
]

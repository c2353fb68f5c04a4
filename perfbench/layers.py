"""Outside-in host-time attribution for the traced pass.

The benchmark times layers from its own files: :func:`instrument` wraps
the public entry points of each layer (``LAYERS``) with spans on one span
stack, and a layer's *self time* is its spans' duration minus the part
covered by nested spans.  Nothing under ``src/`` is modified; the
wrappers are removed when the ``with`` block ends.

Layer names are the simulator's module names.  Three boundaries are not
plain methods and get their own wrapper:

* ``host.workload.deliver`` on the object engine is a timing iterator
  around ``Workload.accesses()``, installed through ``make_driver`` (the
  vectorized engine's delivery is ``ColumnarCursor.ensure``);
* ``host.sim.warmup`` patches ``warmup_process`` in the modules that
  imported it by name;
* ``host.prefetch`` wraps the installed prefetcher's ``on_fault``,
  ``candidates`` and ``on_prefetch_hit`` on each machine built inside the
  block.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Callable
from unittest import mock

__all__ = ["LAYERS", "SpanStack", "instrument", "report", "self_seconds"]

#: Layer name -> (module, attribute path) of every entry point it times.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "host.sim.run": (
        ("repro.sim.scheduler", "ConcurrentScheduler.run"),
        ("repro.sim.simulate", "run_processes"),
    ),
    "host.sim.warmup": (
        ("repro.sim.scheduler", "warmup_process"),
        ("repro.sim.simulate", "warmup_process"),
    ),
    "host.sim.step_burst": (("repro.sim.process", "ProcessDriver.step_burst"),),
    "host.kernel.burst": (("repro.kernel.vectorized", "step_burst_columnar"),),
    "host.kernel.window": (("repro.kernel.vectorized", "ConcurrentResidentWindow.try_run"),),
    "host.workload.deliver": (("repro.kernel.columnar", "ColumnarCursor.ensure"),),
    "host.pipeline.access": (("repro.datapath.pipeline", "FaultPipeline.access"),),
    "host.pipeline.batch": (("repro.datapath.pipeline", "FaultPipeline.begin_batch"),),
    "host.cq": (
        ("repro.rdma.completion", "CompletionQueue.drain"),
        ("repro.rdma.completion", "CompletionQueue.issue"),
        ("repro.rdma.completion", "CompletionQueue.attach"),
    ),
    "host.datapath.read": (
        ("repro.datapath.base", "DataPath.demand_read"),
        ("repro.datapath.base", "DataPath.async_read"),
        ("repro.datapath.base", "DataPath.async_read_batch"),
    ),
    "host.datapath.write": (("repro.datapath.base", "DataPath.async_write"),),
    # Underscore methods, but the pipeline->mem boundary actually crossed.
    "host.mem.map": (
        ("repro.mem.vmm", "VirtualMemoryManager._map_page"),
        ("repro.mem.vmm", "VirtualMemoryManager._reserve_cache_page"),
    ),
    "host.mem.cache": tuple(
        ("repro.mem.page_cache", f"PageCache.{method}")
        for method in ("lookup", "insert", "consume", "drop", "scan", "__contains__")
    ),
    "host.mem.reclaim": (
        ("repro.mem.reclaim", "KswapdReclaimer.maybe_scan"),
        ("repro.mem.reclaim", "KswapdReclaimer.allocation_wait_ns"),
    ),
    "host.prefetch": (),
    "host.cluster": tuple(
        ("repro.cluster.agent", f"ClusterHostAgent.{method}")
        for method in ("read_page", "write_page", "release_page", "recover_from_failure")
    ),
}

_PREFETCH_METHODS = ("on_fault", "candidates", "on_prefetch_hit")


class SpanStack:
    """Per-layer self time and call counts from nested spans."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: Sum of integer results per layer (accesses per kernel burst).
        self.items = dict.fromkeys(LAYERS, 0)
        self._stack: list[list[int]] = []

    def reset(self) -> None:
        """Zero every counter in place (installed wrappers hold the dicts)."""
        for counters in (self.self_ns, self.calls, self.items):
            for layer in counters:
                counters[layer] = 0

    def wrap(self, layer: str, fn: Callable, count_result: bool = False) -> Callable:
        """*fn* timed as one span of *layer*."""
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns, calls, items = self.self_ns, self.calls, self.items

        def span(*args, **kwargs):
            frame = [0, clock()]  # [time covered by child spans, start]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if count_result:
                items[layer] += result
            return result

        return span


class _TimedWorkload:
    """A workload whose ``accesses()`` times every ``next`` as delivery."""

    def __init__(self, workload, spans: SpanStack) -> None:
        self._workload = workload
        self._spans = spans

    def accesses(self):
        timed_next = self._spans.wrap("host.workload.deliver", self._workload.accesses().__next__)
        # iter(callable, sentinel) ends when the callable raises StopIteration.
        return iter(timed_next, object())

    def __getattr__(self, name):
        return getattr(self._workload, name)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


@contextlib.contextmanager
def instrument(spans: SpanStack):
    """Install every layer's spans for the duration of the block."""
    from repro.sim.machine import Machine

    with contextlib.ExitStack() as stack:
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner, name = _owner(module, path)
                original = getattr(owner, name)
                timed = spans.wrap(layer, original, count_result=layer == "host.kernel.burst")
                stack.enter_context(mock.patch.object(owner, name, timed))
        for module in ("repro.sim.scheduler", "repro.sim.simulate"):
            owner = importlib.import_module(module)
            make_driver = owner.make_driver

            def timed_make_driver(pid, workload, *args, _make_driver=make_driver, **kwargs):
                return _make_driver(pid, _TimedWorkload(workload, spans), *args, **kwargs)

            stack.enter_context(mock.patch.object(owner, "make_driver", timed_make_driver))
        machine_init = Machine.__init__

        def timed_machine_init(machine, *args, **kwargs):
            machine_init(machine, *args, **kwargs)
            prefetcher = machine.prefetcher
            for method in _PREFETCH_METHODS:
                bound = getattr(prefetcher, method)
                setattr(prefetcher, method, spans.wrap("host.prefetch", bound))

        stack.enter_context(mock.patch.object(Machine, "__init__", timed_machine_init))
        yield spans


def self_seconds(spans: SpanStack) -> dict[str, float]:
    """Self time of every layer, seconds."""
    return {layer: self_ns / 1e9 for layer, self_ns in spans.self_ns.items()}


def report(spans: SpanStack, wall_s: float) -> dict[str, float]:
    """Per-layer ``.share`` (of *wall_s*) and ``.calls``, plus the attributed share.

    Self time itself is not a metric here: a layer a workload never
    enters would report a time that is exactly 0 on every run.  It is
    ``.share`` times the traced wall time (:func:`self_seconds`).
    """
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = spans.self_ns[layer] / 1e9 / wall_s
        metrics[f"{layer}.calls"] = spans.calls[layer]
    metrics["host.attributed_share"] = sum(spans.self_ns.values()) / 1e9 / wall_s
    bursts = spans.calls["host.kernel.burst"]
    metrics["host.kernel.accesses_per_call"] = (
        spans.items["host.kernel.burst"] / bursts if bursts else 0.0
    )
    return metrics

"""Per-core RDMA dispatch queues.

Leap's remote I/O interface (§4.4) stages remote reads and writes on a
per-CPU-core dispatch queue in front of the RDMA NIC.  The simulator
models each queue as a single server: an operation submitted at time
``t`` starts at ``max(t, busy_until)``, occupies the queue for its
*service time* (wire occupancy plus per-op driver work), and completes
after the additional end-to-end *fabric latency*.  Queueing delay under
load — the effect that makes tail latency blow up when many processes
or write-backs share a queue — falls out of ``busy_until``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DispatchQueue", "QueueStats", "Submission"]


@dataclass(slots=True)
class Submission:
    """Timing of one operation through a dispatch queue.

    Not frozen: one is built per remote read or write, and a frozen
    dataclass pays ``object.__setattr__`` per field on construction.
    Treat it as a value all the same.
    """

    submitted: int
    started: int
    completed: int

    @property
    def queueing_delay(self) -> int:
        return self.started - self.submitted

    @property
    def total_latency(self) -> int:
        return self.completed - self.submitted


class QueueStats:
    """Aggregate counters for one dispatch queue."""

    def __init__(self) -> None:
        self.operations = 0
        self.total_queueing_delay = 0
        #: Largest backlog (ns of queued service time) any submission
        #: found in front of it — the queue-depth signal the fault
        #: pipeline's completion queues summarize per core.
        self.peak_backlog_ns = 0

    @property
    def mean_queueing_delay(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.total_queueing_delay / self.operations


class DispatchQueue:
    """Single-server queue with deterministic service order."""

    def __init__(self, core: int) -> None:
        self.core = core
        self.busy_until = 0
        self.stats = QueueStats()

    def submit(self, now: int, service_ns: int, fabric_ns: int) -> Submission:
        """Run one operation through the queue.

        ``service_ns`` is how long the op occupies the queue (serialized
        with other ops); ``fabric_ns`` is the pipelined remainder of the
        end-to-end latency (flight time, remote DMA) that does *not*
        block the next submission.
        """
        if service_ns < 0 or fabric_ns < 0:
            raise ValueError("service and fabric times must be non-negative")
        # Runs once per remote read or write, so the stats update is
        # inline: a positive backlog is exactly the queueing delay.
        stats = self.stats
        stats.operations += 1
        started = self.busy_until
        backlog = started - now
        if backlog > 0:
            stats.total_queueing_delay += backlog
            if backlog > stats.peak_backlog_ns:
                stats.peak_backlog_ns = backlog
        else:
            started = now
        self.busy_until = started + service_ns
        return Submission(now, started, started + service_ns + fabric_ns)

    def depth_at(self, now: int) -> int:
        """Rough queue depth proxy: outstanding busy time in ops.

        Used only for load-balancing decisions, where a relative signal
        is sufficient.
        """
        backlog = max(0, self.busy_until - now)
        return backlog

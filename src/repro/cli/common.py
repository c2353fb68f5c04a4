"""Shared CLI plumbing: workload/system registries and arg helpers.

Every command group module registers its subcommands against the one
``repro`` parser via an ``add_parsers(sub)`` hook and binds a handler
with ``set_defaults(handler=...)``; this module holds what those
groups share so no group imports another.
"""

from __future__ import annotations

import argparse

from repro.workloads.base import Workload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.numpy_matmul import NumpyMatmulWorkload
from repro.workloads.patterns import (
    RandomWorkload,
    SequentialWorkload,
    StrideWorkload,
    ZipfianWorkload,
)
from repro.workloads.kvcache import KVCacheWorkload
from repro.workloads.powergraph import PowerGraphWorkload
from repro.workloads.voltdb import VoltDBWorkload

__all__ = [
    "SYSTEMS",
    "WORKLOADS",
    "add_workload_args",
    "int_list",
    "make_workload",
]

WORKLOADS = {
    "sequential": SequentialWorkload,
    "stride": StrideWorkload,
    "random": RandomWorkload,
    "zipfian": ZipfianWorkload,
    "powergraph": PowerGraphWorkload,
    "numpy": NumpyMatmulWorkload,
    "voltdb": VoltDBWorkload,
    "memcached": MemcachedWorkload,
    "kvcache": KVCacheWorkload,
}


def _make_systems():
    from repro.sim.machine import disk_config, infiniswap_config, leap_config

    return {
        "disk": lambda args: disk_config(medium="hdd", seed=args.seed),
        "ssd": lambda args: disk_config(medium="ssd", seed=args.seed),
        "d-vmm": lambda args: infiniswap_config(seed=args.seed),
        "leap": lambda args: leap_config(seed=args.seed),
    }


SYSTEMS = _make_systems()


def add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--wss-pages", type=int, default=8_192)
    p.add_argument("--accesses", type=int, default=30_000)
    p.add_argument(
        "--memory",
        type=float,
        default=0.5,
        help="local memory as a fraction of the working set",
    )
    p.add_argument(
        "--stride", type=int, default=10, help="stride for the stride workload"
    )
    p.add_argument("--seed", type=int, default=42)


def int_list(text: str) -> list[int]:
    try:
        return [int(token) for token in text.split(",") if token]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None


def make_workload(args) -> Workload:
    cls = WORKLOADS[args.workload]
    kwargs = dict(
        wss_pages=args.wss_pages, total_accesses=args.accesses, seed=args.seed
    )
    if args.workload == "stride":
        kwargs["stride"] = args.stride
    return cls(**kwargs)


"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Ten commands cover the common interactive uses, one module per
command group:

* ``compare`` / ``run`` / ``figures`` (:mod:`repro.cli.figures`) — the
  quickstart D-VMM-vs-Leap comparison, one workload on one
  configuration, and the paper-figure benchmark listing;
* ``scenario`` (:mod:`repro.cli.scenario`) — the multi-tenant scenario
  engine: ``list`` the named traffic mixes, ``run`` one, or ``sweep``
  a {cores × servers × prefetchers} grid;
* ``control`` (:mod:`repro.cli.control`) — governed-vs-static A/B:
  run a scenario under its online control plane (adaptive prefetcher
  governor, tenant memory balancer) against static prefetcher arms
  and report hit rates, policy decisions, and limit trajectories;
* ``service`` (:mod:`repro.cli.service`) — the long-running run
  service: ``submit`` scenario/sweep jobs to a persistent queue,
  ``worker`` processes that fan sweep cells across host cores,
  ``status``/``result`` for streamed progress and verified
  content-addressed results, ``gc`` for blob reclamation;
* ``trace`` (:mod:`repro.cli.trace`) — production-scale traces:
  ``list`` file metadata, ``capture`` any workload or scenario tenant
  into the columnar v2 container, ``replay`` a trace through either
  burst engine, ``analyze`` it with the vectorized kernel
  (reuse-distance/stride/region artifact), ``convert`` v1 ↔ v2;
* ``perf`` — the CI perf gate: emit a profile artifact (any name in
  :data:`repro.perf.profile.PROFILES`) and compare it against its
  committed baseline;
* ``obs`` (:mod:`repro.cli.obs`) — deterministic run tracing:
  ``record`` a traced profile/scenario run (byte-identical payloads to
  untraced runs), ``export`` to Perfetto JSON or columnar ``.npz``,
  ``top`` for per-stage fault-time attribution, ``timeline`` for the
  raw event stream, ``diff`` for stage-level deltas;
* ``check`` (:mod:`repro.cli.check`) — the repo-specific static
  analyzer: determinism, hot-path hygiene, engine parity, and counter
  registry rules (R1-R4; see docs/static-analysis.md).

Each group module registers its subcommands via ``add_parsers(sub)``
and binds its handler with ``set_defaults(handler=...)``; ``main``
just parses and dispatches.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import check as _check
from repro.cli import control as _control
from repro.cli import figures as _figures
from repro.cli import obs as _obs
from repro.cli import scenario as _scenario
from repro.cli import service as _service
from repro.cli import trace as _trace
from repro.cli.common import SYSTEMS, WORKLOADS
from repro.cli.figures import FIGURES

__all__ = ["FIGURES", "SYSTEMS", "WORKLOADS", "build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Effectively Prefetching Remote Memory with Leap'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _figures.add_parsers(sub)
    _scenario.add_parsers(sub)
    _control.add_parsers(sub)
    _service.add_parsers(sub)
    _trace.add_parsers(sub)
    _obs.add_parsers(sub)
    _check.add_parsers(sub)

    from repro.perf.__main__ import add_perf_arguments, run as perf_run

    perf = sub.add_parser(
        "perf",
        help="emit/gate a perf profile artifact (see --profile)",
    )
    add_perf_arguments(perf)
    perf.set_defaults(handler=perf_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

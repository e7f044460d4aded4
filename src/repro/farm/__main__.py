"""CLI for the sweep farm: ``python -m repro.farm sweep|smoke``.

``sweep`` runs (or, with ``--resume``, continues) one farm sweep —
this is the entry point the chaos smoke relaunches after killing the
supervisor.  ``smoke`` runs the full service-grade chaos campaign:
every farm failure mode, each byte-compared against an uninterrupted
sequential sweep.  (The worker entry point is
``python -m repro.farm.worker``; the supervisor spawns it for you.)
"""

import argparse
import sys

from repro import farm


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.farm",
        description="Crash-tolerant sweep farm: durable queue, "
                    "lease-based workers, supervising daemon.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="run (or resume) one sweep on the farm")
    sweep.add_argument("experiment")
    sweep.add_argument("--scale", type=float, default=1.0)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--state-dir", default=None,
                       help="farm state directory (queue journal, "
                            "leases, spool)")
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--resume", action="store_true")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker process count (default: one per "
                            "core, capped at the cell count)")
    sweep.add_argument("--lease-ttl", type=float, default=5.0)
    sweep.add_argument("--timeout", type=float, default=None)
    sweep.add_argument("--retries", type=int, default=1)
    sweep.add_argument("--backoff", type=float, default=0.05)
    sweep.add_argument("--watchdog", type=float, default=None)
    sweep.add_argument("--check", action="store_true",
                       help="compare the table against the committed "
                            "golden")
    sweep.add_argument("--worker-output", action="store_true",
                       help="let workers inherit stdout/stderr "
                            "(debugging)")
    sweep.add_argument("--engine", choices=("event", "oracle"),
                       default=None,
                       help="replay engine for every cell (exported "
                            "as REPRO_REPLAY_ENGINE to worker and "
                            "cell subprocesses; default: inherited "
                            "env or event replay)")

    smoke = sub.add_parser(
        "smoke", help="service-grade chaos campaign vs the "
                      "sequential sweep")
    smoke.add_argument("--experiment", default="compression")
    smoke.add_argument("--scale", type=float, default=0.2)
    smoke.add_argument("--seed", type=int, default=7)
    smoke.add_argument("--jobs", type=int, default=2)
    smoke.add_argument("--chaos-seed", type=int, default=1)
    smoke.add_argument("--lease-ttl", type=float, default=1.0)
    smoke.add_argument("--workdir", default=None)
    smoke.add_argument("--check", action="store_true")
    smoke.add_argument("--scenarios", default=None,
                       help="comma list restricting the campaign "
                            f"(default: all of {list(farm.SCENARIOS)})")
    smoke.add_argument("--engine", choices=("event", "oracle"),
                       default=None,
                       help="replay engine for the reference sweep "
                            "and every farm scenario")

    args = parser.parse_args(argv)
    if args.command == "sweep":
        result = farm.run_farm_sweep(
            args.experiment, scale=args.scale, seed=args.seed,
            out_path=args.out, resume=args.resume,
            timeout=args.timeout, max_attempts=args.retries + 1,
            backoff=args.backoff, check=args.check,
            stream=sys.stderr, workers=args.jobs,
            lease_ttl=args.lease_ttl, state_dir=args.state_dir,
            watchdog=args.watchdog, worker_output=args.worker_output,
            engine=args.engine)
        return 0 if result.ok else 1
    only = None
    if args.scenarios:
        only = [s.strip() for s in args.scenarios.split(",")
                if s.strip()]
    return farm.smoke(
        experiment=args.experiment, scale=args.scale, seed=args.seed,
        check=args.check, workdir=args.workdir, stream=sys.stderr,
        jobs=args.jobs, chaos_seed=args.chaos_seed,
        lease_ttl=args.lease_ttl, only=only, engine=args.engine)


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference digests of the two sweep workloads.

``sweeps`` and ``sweeps-oracle`` check each figure's table against the
sha256 of the table event replay produces for the same seed.  This
one-off command records those digests, one event-engine pass per seed
on an empty trace cache, and merges them into ``digests.json``::

    python3 perfbench/digests.py --seeds 0-31   # the committed seeds
    python3 perfbench/digests.py --seeds 9001   # a held-out seed

Record a held-out seed before a performance change, then re-check the
change's claim on it with ``run.py --seed 9001``.  A run whose seed has
no recorded digests records its reference itself, untimed, before it
measures.
"""

import argparse
import json
import shutil
import sys

import run
import suites


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="seeds to record, e.g. 0-31 or 7,9001")
    args = parser.parse_args(argv)
    run.preflight()
    recorded = {"scale": suites.SWEEP_SCALE, "engine": "event", "seeds": {}}
    if run.DIGESTS.exists():
        existing = json.loads(run.DIGESTS.read_text())
        if existing.get("scale") == suites.SWEEP_SCALE:
            recorded = existing
    scratch = run.WORK / "digests"
    try:
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(scratch, ignore_errors=True)
            recorded["seeds"][str(seed)] = run.event_digests(seed, scratch)
            print(f"seed {seed}: recorded", flush=True)
            run.DIGESTS.write_text(
                json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    except run.PassError as exc:
        print(f"digests: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

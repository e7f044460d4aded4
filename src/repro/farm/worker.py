"""Lease-based work-stealing sweep worker.

One worker process serves one farm state directory.  Its loop is
deliberately stateless — every decision re-derives from durable
artefacts, so a worker can be SIGKILLed at *any* instruction and a
peer (or its respawned successor) reconstructs the exact situation:

1. scan the queue journal (read-only) and the result spool for the
   first cell, in enqueue order, that is neither committed, nor
   successfully spooled, nor poisoned (``fail-spools >= max_attempts``),
   nor freshly leased by a live peer;
2. claim it under a TTL lease (:mod:`repro.farm.lease`) — breaking a
   stale lease *is* the steal that rescues a dead peer's cell;
3. run the cell in a watched subprocess (the sweep runner's own
   ``run-cell`` entry point, forked from the worker's warm parent,
   whole-process-group watchdog), renewing the lease from a heartbeat
   thread every ``ttl/3`` seconds;
4. publish the outcome into the spool — success as
   ``<cell>.json`` (atomic write-then-rename; duplicate completions of
   a stolen cell write byte-identical payloads, so last-wins is
   exactly-once-safe), failure as ``<cell>.fail-<attempt>.json``
   carrying the stdout/stderr tails — then release the lease.

Retries back off with the runner's seeded deterministic jitter, so a
fleet retrying one flaky resource never stampedes in lockstep.  The
worker exits 0 when every cell is resolved, and exits on its own when
its supervisor's pid disappears (an orphaned worker must not outlive
the sweep).

Chaos: a worker spawned with ``REPRO_FARM_CHAOS_KILL`` set SIGKILLs
itself (and its cell's process group) shortly after starting its first
cell — the deterministic stand-in for an OOM-killed worker mid-cell.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
import zlib

from repro.evalx import runner as _runner
from repro.farm import lease as lease_mod
from repro.farm.queue import WorkQueue
from repro.ioutil import atomic_write_text

#: env flag: this worker must SIGKILL itself mid-cell (chaos)
ENV_CHAOS_KILL = "REPRO_FARM_CHAOS_KILL"

QUEUE_FILENAME = "queue.jsonl"
SPOOL_DIRNAME = "spool"
LEASE_DIRNAME = "leases"


def queue_path(state_dir):
    return pathlib.Path(state_dir) / QUEUE_FILENAME


def spool_dir(state_dir):
    return pathlib.Path(state_dir) / SPOOL_DIRNAME


def lease_dir(state_dir):
    return pathlib.Path(state_dir) / LEASE_DIRNAME


def cell_slug(key):
    """Filesystem-safe, collision-free name for one cell key."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", key)[:48]
    return f"{safe}-{zlib.crc32(key.encode()):08x}"


def success_path(state_dir, key):
    return spool_dir(state_dir) / f"{cell_slug(key)}.json"


def failure_path(state_dir, key, attempt):
    return spool_dir(state_dir) / f"{cell_slug(key)}.fail-{attempt}.json"


def failure_count(state_dir, key):
    """Completed failed attempts on record for one cell."""
    pattern = f"{cell_slug(key)}.fail-*.json"
    directory = spool_dir(state_dir)
    if not directory.is_dir():
        return 0
    return sum(1 for _ in directory.glob(pattern))


def load_success(state_dir, key):
    """The success spool record for ``key``, or ``None``."""
    try:
        with open(success_path(state_dir, key), "r",
                  encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict) or record.get("status") != "ok":
        return None
    return record


def load_failures(state_dir, key):
    """Every failure spool record for ``key``, in attempt order."""
    records = []
    for attempt in range(failure_count(state_dir, key) + 2):
        path = failure_path(state_dir, key, attempt)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                records.append(json.load(handle))
        except (OSError, json.JSONDecodeError):
            continue
    return records


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


class FarmWorker:
    """The worker loop; see the module docstring for the protocol."""

    def __init__(self, state_dir, experiment, scale, seed,
                 worker_id=None, lease_ttl=30.0, timeout=None,
                 max_attempts=2, backoff=0.05, supervisor_pid=None,
                 tick=0.02, stream=None):
        self.state_dir = pathlib.Path(state_dir)
        self.experiment = experiment
        self.scale = scale
        self.seed = seed
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.lease_ttl = float(lease_ttl)
        self.timeout = timeout
        self.max_attempts = max(1, int(max_attempts))
        self.backoff = backoff
        self.supervisor_pid = supervisor_pid
        self.tick = tick
        self.stream = stream
        self.queue = WorkQueue(queue_path(self.state_dir))
        self.cells_run = 0
        self.steals = 0
        self._chaos_kill_armed = bool(os.environ.get(ENV_CHAOS_KILL))

    def say(self, message):
        if self.stream is not None:
            self.stream.write(f"[{self.worker_id}] {message}\n")
            self.stream.flush()

    # -- situation assessment ----------------------------------------------

    def _resolved(self, key, state):
        """No more work possible or needed on this cell."""
        if state.committed(key):
            return True
        if load_success(self.state_dir, key) is not None:
            return True
        return failure_count(self.state_dir, key) >= self.max_attempts

    def _orphaned(self):
        return (self.supervisor_pid is not None
                and not _pid_alive(self.supervisor_pid))

    # -- execution ----------------------------------------------------------

    def _heartbeat(self, lease, stop):
        interval = max(0.01, self.lease_ttl / 3.0)
        while not stop.wait(interval):
            if not lease.renew():
                self.say(f"lease on {lease.path} lost (stolen after "
                         "expiry); finishing anyway — spool writes are "
                         "idempotent")
                return

    def _chaos_self_kill(self, command, env):
        """The armed worker-kill: start the cell, then die mid-cell."""
        proc = subprocess.Popen(command, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
        time.sleep(0.05)
        self.say("chaos[worker_kill]: SIGKILLing self mid-cell")
        _runner._signal_group(proc, signal.SIGKILL)
        os.kill(os.getpid(), signal.SIGKILL)

    def run_cell(self, key, attempt, lease):
        """One watched attempt; spools the outcome."""
        if attempt > 0 and self.backoff:
            # seeded deterministic jitter: peers retrying one flaky
            # resource spread out instead of stampeding in lockstep
            time.sleep(_runner.retry_delay(self.backoff, attempt - 1,
                                           self.seed, key))
        command = _runner._cell_command(self.experiment, key,
                                        self.scale, self.seed, attempt)
        env = _runner._cell_env()
        env.pop(ENV_CHAOS_KILL, None)  # never inherited by the cell
        if self._chaos_kill_armed:
            self._chaos_self_kill(command, env)  # does not return
        stop = threading.Event()
        beat = threading.Thread(target=self._heartbeat,
                                args=(lease, stop), daemon=True)
        beat.start()
        try:
            returncode, stdout, stderr, timed_out = _runner.watched_run(
                command, env=env, timeout=self.timeout)
        finally:
            stop.set()
            beat.join(timeout=2.0)
        self.cells_run += 1
        if timed_out:
            self._spool_failure(
                key, attempt,
                f"watchdog: cell exceeded {self.timeout}s wall clock",
                stdout, stderr)
            return False
        if returncode != 0:
            self._spool_failure(key, attempt,
                                f"exit status {returncode}",
                                stdout, stderr)
            return False
        payload = None
        for line in reversed((stdout or "").splitlines()):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                payload = None
            break
        if payload is None:
            self._spool_failure(key, attempt,
                                "unparsable or missing cell output",
                                stdout, stderr)
            return False
        atomic_write_text(
            success_path(self.state_dir, key),
            json.dumps({"key": key, "status": "ok", "payload": payload,
                        "attempt": attempt}, sort_keys=True))
        return True

    def _spool_failure(self, key, attempt, error, stdout, stderr):
        detail = _runner.failure_detail(stdout, stderr)
        if detail:
            error = f"{error}: {detail}"
        self.say(f"cell {key}: attempt {attempt + 1} failed ({error})")
        atomic_write_text(
            failure_path(self.state_dir, key, attempt),
            json.dumps({"key": key, "attempt": attempt, "error": error,
                        "worker": self.worker_id}, sort_keys=True))

    # -- the loop ------------------------------------------------------------

    def run(self):
        """Work until every cell is resolved; returns 0.

        Cells fork from one warm parent (:class:`repro.evalx.runner.
        WarmCells`), which is reaped before this returns.
        """
        spool_dir(self.state_dir).mkdir(parents=True, exist_ok=True)
        lease_dir(self.state_dir).mkdir(parents=True, exist_ok=True)
        with _runner.WarmCells() as launches:
            return self._work(launches)

    def _work(self, launches):
        while True:
            if self._orphaned():
                self.say("supervisor is gone; exiting")
                return 0
            state = self.queue.load_state()
            pending = [key for key in state.order
                       if not self._resolved(key, state)]
            if state.order and not pending:
                self.say(f"all {len(state.order)} cell(s) resolved; "
                         f"ran {self.cells_run}, stole {self.steals}; "
                         f"{launches.describe()}")
                return 0
            claimed = False
            for key in pending:
                attempt = failure_count(self.state_dir, key)
                if attempt >= self.max_attempts:
                    continue  # poisoned: the supervisor quarantines it
                path = lease_dir(self.state_dir) / f"{cell_slug(key)}.lease"
                stale_before = (path.exists()
                                and lease_mod.is_stale(
                                    lease_mod.read_lease(path)))
                lease = lease_mod.acquire(path, self.worker_id, attempt,
                                          self.lease_ttl)
                if lease is None:
                    continue  # a live peer holds it: try the next cell
                if stale_before:
                    self.steals += 1
                    self.say(f"stole expired/dead lease for cell {key}")
                claimed = True
                try:
                    # the spool may have landed while we waited on a
                    # peer's lease — never re-run a completed cell
                    if load_success(self.state_dir, key) is None:
                        self.run_cell(key, attempt, lease)
                finally:
                    lease.release()
                break
            if not claimed:
                time.sleep(self.tick)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Farm sweep worker (internal; spawned by the "
                    "supervisor)."
    )
    parser.add_argument("experiment")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("--lease-ttl", type=float, default=30.0)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--max-attempts", type=int, default=2)
    parser.add_argument("--backoff", type=float, default=0.05)
    parser.add_argument("--supervisor-pid", type=int, default=None)
    parser.add_argument("--tick", type=float, default=0.02)
    args = parser.parse_args(argv)
    worker = FarmWorker(
        args.state_dir, args.experiment, args.scale, args.seed,
        worker_id=args.worker_id, lease_ttl=args.lease_ttl,
        timeout=args.timeout, max_attempts=args.max_attempts,
        backoff=args.backoff, supervisor_pid=args.supervisor_pid,
        tick=args.tick, stream=sys.stderr,
    )
    return worker.run()


if __name__ == "__main__":
    sys.exit(main())

"""Fault-injection campaign: the resilience layer leaves nothing silent.

Sweeps fault kind × trigger point × model × protection level, runs a
real verified workload under each combination, and classifies every run
by the highest rung of the recovery ladder it needed:

* ``corrected`` — SEC-DED fixed a single-bit error in place;
* ``reread``    — a transient glitch vanished on retry;
* ``reloaded``  — a clean register was demand-reloaded from backing;
* ``trapped``   — a dirty uncorrectable error raised a machine check;
* ``detected``  — another verification layer caught it (strict-mode
  read faults, deadlock detection, ...);
* ``harmless``  — the fault landed but was never consumed;
* ``silent``    — the run finished with a *wrong answer* and no error.

The campaign's contract, asserted by ``assert_campaign_clean`` (and by
``make faults``): with ECC+parity on there are **zero silent
corruptions**; with protection off at least one kind corrupts silently
— proving the campaign can tell the difference.  All counts are
deterministic for a fixed seed.

Runs that share a (model, protection) family are identical up to
their trigger, so :func:`run_campaign` runs each family's fault-free
workload once and, at the operation before each trigger, forks one
child per (kind, trigger); each child injects, finishes the workload
and sends its record back over a pipe.  Where forking is unsafe (no
``os.fork``, or any second thread alive:
:func:`repro.ioutil.fork_unavailable`) every run goes through
:func:`run_single`, the exact reference either way.

CLI::

    python -m repro.evalx resilience            # print the table
    python -m repro.evalx.resilience --check    # assert the contract
"""

import os
import random

from repro.core import NamedStateRegisterFile, SegmentedRegisterFile
from repro.core.faults import FAULT_KINDS, FaultyRegisterFile
from repro.core.resilience import ProtectedRegisterFile
from repro.errors import MachineCheckError, ReproError
from repro.evalx.tables import ExperimentTable
from repro.ioutil import (
    fork_unavailable,
    kill_and_reap,
    read_reply,
    reply_and_exit,
)

CAMPAIGN_MODELS = ("nsf", "segmented")
CAMPAIGN_PROTECTION = ("off", "ecc")
CAMPAIGN_WORKLOAD = "GateSim"
#: small files so spills/reloads (and therefore clean memory copies)
#: are plentiful — the regime the recovery ladder is built for
CAMPAIGN_NSF_REGISTERS = 24
CAMPAIGN_SEG_REGISTERS = 40
TRIGGERS_PER_CELL = 3

OUTCOMES = ("corrected", "reread", "reloaded", "trapped", "detected",
            "harmless", "silent")


def make_campaign_model(model_kind, context_size=20):
    """A deliberately small register file for one campaign run."""
    if model_kind == "nsf":
        return NamedStateRegisterFile(
            num_registers=CAMPAIGN_NSF_REGISTERS,
            context_size=context_size, line_size=1,
        )
    if model_kind == "segmented":
        return SegmentedRegisterFile(
            num_registers=CAMPAIGN_SEG_REGISTERS,
            context_size=context_size,
        )
    raise ValueError(f"unknown campaign model {model_kind!r}")


def run_single(kind, model_kind, protection, trigger, scale=0.25, seed=3,
               trap_unit=None):
    """One injected run; returns its classification record.

    The workload runs with ``check=False`` and ``verify_values=False``:
    the shadow checker would catch every corruption by construction,
    which is precisely the safety net a hardware protection layer must
    not depend on.  Detection must come from ECC/parity or not at all.
    """
    faulty = FaultyRegisterFile(make_campaign_model(model_kind), kind,
                                trigger_at=trigger)
    model, rstats = _protect(faulty, protection, trap_unit)
    outcome = _run_workload(model, rstats, scale, seed)
    return _record(faulty, model_kind, protection, outcome, rstats)


def _protect(faulty, protection, trap_unit=None):
    """``(model, rstats)``: the fault wrapper under ``protection``."""
    if protection == "off":
        return faulty, None
    model = ProtectedRegisterFile(faulty, level=protection,
                                  trap_unit=trap_unit)
    return model, model.rstats


def _run_workload(model, rstats, scale, seed):
    """Run the campaign workload on ``model``; return its outcome."""
    from repro.workloads import get_workload

    workload = get_workload(CAMPAIGN_WORKLOAD)
    try:
        result = workload.run(model, scale=scale, seed=seed, check=False,
                              verify_values=False)
    except MachineCheckError:
        return "trapped"
    except (ReproError, AssertionError):
        return "detected"
    if not result.verified:
        return "silent"
    if rstats is not None and rstats.detected:
        # Highest rung the recovery actually needed.
        if rstats.reload_recoveries:
            return "reloaded"
        if rstats.reread_recoveries:
            return "reread"
        return "corrected"
    return "harmless"


def _record(faulty, model_kind, protection, outcome, rstats):
    """One run's classification record.  Kind and trigger come from the
    wrapper, so a forked child reports the ones it took at its fork."""
    return {
        "kind": faulty.kind,
        "model": model_kind,
        "protection": protection,
        "trigger": faulty.trigger_at,
        "outcome": outcome,
        "injected": faulty.injected,
        "rstats": rstats.snapshot() if rstats is not None else None,
        "retired": rstats.lines_retired if rstats is not None else 0,
    }


def campaign_triggers(seed, count=TRIGGERS_PER_CELL):
    """The deterministic trigger points every cell is swept over."""
    rng = random.Random(seed)
    return sorted(rng.randrange(150, 2600) for _ in range(count))


def _workload_scale(scale):
    return max(0.12, 0.25 * scale)


def _aggregate(kind, model_kind, level, records):
    """One campaign cell from its runs' records (one per trigger)."""
    counts = {outcome: 0 for outcome in OUTCOMES}
    for record in records:
        counts[record["outcome"]] += 1
    return {
        "kind": kind,
        "model": model_kind,
        "protection": level,
        "runs": len(records),
        "injected": sum(int(record["injected"]) for record in records),
        "retired": sum(record["retired"] for record in records),
        **counts,
    }


def run_campaign_cell(kind, model_kind, level, scale=1.0, seed=1):
    """One campaign cell: every trigger of one kind/model/protection.

    A single kind shares too little prefix to pay for a fork, so the
    runner's per-cell path runs each trigger through :func:`run_single`.
    """
    records = [run_single(kind, model_kind, level, trigger,
                          scale=_workload_scale(scale), seed=seed)
               for trigger in campaign_triggers(seed)]
    return _aggregate(kind, model_kind, level, records)


# -- the forked campaign ------------------------------------------------------


class ForkedRunError(RuntimeError):
    """A forked campaign run raised or died instead of classifying."""


class _ForkingFaultyRegisterFile(FaultyRegisterFile):
    """The shared fault-free prefix of one (model, protection) family.

    ``runs`` lists the family's ``(kind, trigger)`` runs.  The parent
    never injects (its trigger is infinite).  At the top of the
    operation that ``run_single(kind, ..., trigger=T)`` counts as ``T``
    it forks one child per run with trigger ``T``; the child takes its
    kind and trigger, becomes a plain :class:`FaultyRegisterFile` and
    carries on, so from there it sees exactly the state and operation
    stream that :func:`run_single` sees.
    """

    def __init__(self, inner, runs):
        super().__init__(inner, runs[0][0], trigger_at=float("inf"))
        #: operation count at the fork point -> slots forked there; a
        #: trigger <= 1 fires on the first operation, like trigger 1
        self._forks = {}
        for slot, (_, trigger) in enumerate(runs):
            self._forks.setdefault(max(trigger, 1) - 1, []).append(slot)
        self._runs = runs
        self._fork_ops = sorted(self._forks, reverse=True)
        self._fork_at = self._fork_ops.pop() if self._fork_ops else -1
        #: live children, in fork order: ``(pid, read fd, slot)``
        self.children = []
        #: the write end of a child's pipe (``None`` in the parent)
        self.pipe = None

    # The parent's trigger is infinite, so only the fork-point test in
    # front of each operation does anything here.  A child leaves this
    # class at its fork and stops paying for it, which is why these call
    # the base class by name: ``super()`` fails once the class changed.

    def write(self, offset, value, cid=None):
        if self.operations == self._fork_at:
            self._fork()
        return FaultyRegisterFile.write(self, offset, value, cid=cid)

    def read(self, offset, cid=None):
        if self.operations == self._fork_at:
            self._fork()
        return FaultyRegisterFile.read(self, offset, cid=cid)

    def free_register(self, offset, cid=None):
        if self.operations == self._fork_at:
            self._fork()
        return FaultyRegisterFile.free_register(self, offset, cid=cid)

    def switch_to(self, cid):
        if self.operations == self._fork_at:
            self._fork()
        return FaultyRegisterFile.switch_to(self, cid)

    def _fork(self):
        for slot in self._forks.pop(self._fork_at):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(rfd)
                self.pipe = wfd
                self.children = []
                self.kind, self.trigger_at = self._runs[slot]
                self.__class__ = FaultyRegisterFile
                return
            self.children.append((pid, rfd, slot))
            os.close(wfd)
        self._fork_at = self._fork_ops.pop() if self._fork_ops else -1

    def unreached(self):
        """Slots whose fork point the workload never reached."""
        return sorted(slot for slots in self._forks.values()
                      for slot in slots)

    def collect(self):
        """``{slot: record}`` from every child, in fork order.

        Each child's pipe is read to EOF before that pid (and only that
        pid) is reaped, so no other child of the caller is disturbed.
        """
        records = {}
        while self.children:
            pid, rfd, slot = self.children[0]
            reply, status = read_reply(pid, rfd)
            del self.children[0]
            kind, trigger = self._runs[slot]
            if reply is None:
                code = os.waitstatus_to_exitcode(status)
                how = (f"killed by signal {-code}" if code < 0
                       else f"exit code {code}")
                raise ForkedRunError(
                    f"forked run ({kind}, trigger {trigger}) died without "
                    f"a record ({how})")
            state, value = reply
            if state != "ok":
                raise ForkedRunError(
                    f"forked run ({kind}, trigger {trigger}) raised "
                    f"{value}")
            records[slot] = value
        return records

    def abort(self):
        """SIGKILL and reap every live child; the parent is failing."""
        kill_and_reap([(pid, rfd) for pid, rfd, _ in self.children])
        self.children = []


def _run_family(model_kind, protection, runs, scale, seed):
    """``({slot: record}, unreached slots)`` for one family, forked.

    The caller runs the unreached slots through :func:`run_single`.
    Each child writes one marshalled ``("ok", record)`` or ``("error",
    message)`` to its pipe and leaves through ``os._exit``, even on an
    interrupt: it never returns into the caller, runs no atexit hook
    and flushes no buffer it inherited.  The parent kills and reaps its
    children before it re-raises anything.
    """
    parent = os.getpid()
    faulty = _ForkingFaultyRegisterFile(make_campaign_model(model_kind),
                                        runs)
    model, rstats = _protect(faulty, protection)
    payload = None
    try:
        outcome = _run_workload(model, rstats, scale, seed)
        if os.getpid() == parent:
            return faulty.collect(), faulty.unreached()
        payload = ("ok", _record(faulty, model_kind, protection, outcome,
                                 rstats))
    except BaseException as exc:
        if os.getpid() == parent:
            faulty.abort()
            raise
        payload = ("error", f"{type(exc).__name__}: {exc}")
    finally:
        if os.getpid() != parent:
            reply_and_exit(faulty.pipe, payload)


def _campaign_records(scale, seed, kinds, models, protection):
    """Every run's record, keyed ``(kind, model, protection, trigger
    index)``, plus a line saying how the runs were served."""
    triggers = campaign_triggers(seed)
    wscale = _workload_scale(scale)
    reason = fork_unavailable()
    records = {}
    forked = prefixes = 0
    for model_kind in models:
        for level in protection:
            runs = [(kind, trigger) for kind in kinds
                    for trigger in triggers]
            done, rest = {}, range(len(runs))
            if reason is None and runs:
                done, rest = _run_family(model_kind, level, runs, wscale,
                                         seed)
                forked += len(done)
                prefixes += 1
            for slot in rest:
                kind, trigger = runs[slot]
                done[slot] = run_single(kind, model_kind, level, trigger,
                                        scale=wscale, seed=seed)
            for slot, (kind, _) in enumerate(runs):
                records[kind, model_kind, level,
                        slot % len(triggers)] = done[slot]
    if reason is None:
        served = (f"{forked} of {len(records)} runs forked from "
                  f"{prefixes} shared prefix{'es' * (prefixes != 1)}")
    else:
        served = f"0 of {len(records)} runs forked: run_single ({reason})"
    return records, served


def _serve_campaign(scale, seed, kinds=FAULT_KINDS, models=CAMPAIGN_MODELS,
                    protection=CAMPAIGN_PROTECTION):
    records, served = _campaign_records(scale, seed, kinds, models,
                                        protection)
    count = len(campaign_triggers(seed))
    cells = [
        _aggregate(kind, model_kind, level,
                   [records[kind, model_kind, level, index]
                    for index in range(count)])
        for kind in kinds
        for model_kind in models
        for level in protection
    ]
    return cells, served


def run_campaign(scale=1.0, seed=1, kinds=FAULT_KINDS,
                 models=CAMPAIGN_MODELS, protection=CAMPAIGN_PROTECTION):
    """Full sweep; returns one aggregate record per campaign cell."""
    return _serve_campaign(scale, seed, kinds, models, protection)[0]


def _cell_row(cell):
    return [
        cell["kind"], cell["model"], cell["protection"], cell["runs"],
        cell["injected"], cell["corrected"], cell["reread"],
        cell["reloaded"], cell["trapped"], cell["retired"],
        cell["detected"], cell["harmless"], cell["silent"],
    ]


def table_skeleton(scale=1.0, seed=1):
    return ExperimentTable(
        experiment="Resilience",
        title="Fault-injection campaign: outcomes by kind, model, "
              "protection",
        headers=["Fault kind", "Model", "Protection", "Runs", "Injected",
                 "Corrected", "Reread", "Reloaded", "Trapped", "Retired",
                 "Detected", "Harmless", "Silent"],
        notes="0 silent with ECC on is the contract; silent>0 appears "
              "only with protection off (shadow checking disabled "
              "throughout)",
    )


def cell_keys():
    """Independent campaign cells (``kind/model/protection``)."""
    return [f"{kind}/{model_kind}/{level}"
            for kind in FAULT_KINDS
            for model_kind in CAMPAIGN_MODELS
            for level in CAMPAIGN_PROTECTION]


def run_cell_rows(key, scale=1.0, seed=1):
    kind, model_kind, level = key.split("/")
    cell = run_campaign_cell(kind, model_kind, level, scale=scale,
                             seed=seed)
    return [_cell_row(cell)]


def run(scale=1.0, seed=1):
    """The campaign as an experiment table (golden-locked)."""
    table = table_skeleton(scale=scale, seed=seed)
    for cell in run_campaign(scale=scale, seed=seed):
        table.add_row(*_cell_row(cell))
    return table


def assert_campaign_clean(scale=0.5, seed=11):
    """The campaign contract, as an assertion (used by ``make faults``).

    * zero silent corruptions in every protected cell;
    * at least one silent corruption somewhere with protection off
      (otherwise the campaign could not distinguish protection levels);
    * detection coverage: every protected cell that injected a fault
      shows a nonzero outcome other than silent/harmless.
    """
    cells = run_campaign(scale=scale, seed=seed)
    _assert_clean(cells)
    return cells


def _assert_clean(cells):
    protected = [c for c in cells if c["protection"] != "off"]
    unprotected = [c for c in cells if c["protection"] == "off"]
    silent_protected = sum(c["silent"] for c in protected)
    assert silent_protected == 0, (
        f"{silent_protected} silent corruption(s) slipped past ECC: "
        f"{[c for c in protected if c['silent']]}"
    )
    assert sum(c["silent"] for c in unprotected) > 0, (
        "no unprotected run corrupted silently — the campaign cannot "
        "distinguish protection levels at this scale/seed"
    )
    for cell in protected:
        if cell["injected"]:
            caught = (cell["corrected"] + cell["reread"] + cell["reloaded"]
                      + cell["trapped"] + cell["detected"]
                      + cell["harmless"])
            assert caught > 0, f"injected but unaccounted: {cell}"


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Run the fault-injection campaign."
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--check", action="store_true",
                        help="assert the zero-silent-corruption contract "
                             "instead of printing the table")
    args = parser.parse_args(argv)
    if args.check:
        cells, served = _serve_campaign(args.scale, args.seed)
        _assert_clean(cells)
        injected = sum(c["injected"] for c in cells)
        print(f"campaign clean: {injected} faults injected across "
              f"{len(cells)} cells, 0 silent corruptions with ECC on; "
              f"{served}")
        return 0
    print(run(scale=args.scale, seed=args.seed).render())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

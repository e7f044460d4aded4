"""Crash-safe, resumable sweep runner.

Runs an experiment *cell by cell*, each cell in its own subprocess
under a wall-clock watchdog, appending every result to a write-ahead
:class:`~repro.evalx.journal.Journal` before moving on.  Kill the
process at any point — SIGKILL included — and re-invoking with
``--resume`` picks up from the journal: completed cells are skipped,
failed or half-written ones re-run, and the final table is identical
to an uninterrupted run by construction (cells are independent and
seeded).

Experiments that export the cell-splitter trio (``table_skeleton`` /
``cell_keys`` / ``run_cell_rows``) sweep one cell per subprocess;
every other experiment degrades to a single whole-table cell — still
journalled, still resumable across the sweep boundary.

A cell that exhausts its retries is *dropped, loudly*: the sweep
finishes, prints an explicit ``N of M cell(s) dropped`` banner, marks
the table notes PARTIAL, and exits nonzero.  Silent truncation is the
one failure mode this harness refuses to have.

Independent cells run concurrently in a bounded pool of watched
subprocesses (``--jobs N``; the default is ``min(os.cpu_count(),
cells)``, ``--jobs 1`` restores the strictly sequential scheduler).
Parallelism never touches the contract: results are committed to the
write-ahead journal in deterministic *cell order* regardless of
completion order, so the journal, resume semantics, and the final
output file are byte-identical to a sequential run.  Each worker
thread forks its cells from one warm parent that has done a
``run-cell``'s imports once (:class:`WarmCells`), so a cell skips
interpreter start-up; the sweep forks those parents from its own
process before its pool starts, so they skip it too.  The sweep's
closing line says how its attempts and its parents were launched.

CLI::

    python -m repro.evalx.runner sweep compression --scale 0.35 \
        --seed 11 --resume --timeout 120 --jobs 4
    python -m repro.evalx.runner smoke --kills 3     # chaos self-test
"""

import gc
import io
import json
import math
import os
import pathlib
import random
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
import zlib

from repro.chaos import plane as _chaos
from repro.errors import JournalError
from repro.evalx.journal import Journal
from repro.evalx.tables import ExperimentTable
from repro.ioutil import atomic_write_text, fork_unavailable

#: pseudo-key for experiments without a cell splitter
GENERIC_CELL = "__table__"

#: test hooks (see tests/test_runner.py): "key:failcount,key2:n" makes
#: run-cell exit nonzero while attempt < n; a comma list of keys makes
#: run-cell hang until the watchdog fires
FAIL_CELLS_ENV = "REPRO_RUNNER_FAIL_CELLS"
HANG_CELLS_ENV = "REPRO_RUNNER_HANG_CELLS"


def _cell_modules():
    from repro.evalx import chaos, compression, resilience, table1

    return {
        "chaos": chaos,
        "compression": compression,
        "table1": table1,
        "resilience": resilience,
    }


def sweep_cells(experiment):
    """The independent cells of one experiment, in table order."""
    module = _cell_modules().get(experiment)
    if module is not None:
        return module.cell_keys()
    return [GENERIC_CELL]


def run_cell(experiment, key, scale=1.0, seed=1):
    """Run one cell in-process; returns its journal payload."""
    module = _cell_modules().get(experiment)
    if module is not None:
        rows = module.run_cell_rows(key, scale=scale, seed=seed)
        return {"rows": [list(row) for row in rows]}
    from repro.evalx import run_experiment

    table = run_experiment(experiment, scale=scale, seed=seed)
    return {"table": table.to_dict()}


def assemble_table(experiment, scale, seed, cells):
    """Build the sweep table from journalled cells.

    Returns ``(table, dropped_keys)``; ``table`` is None only for a
    generic experiment whose single cell never completed.
    """
    keys = sweep_cells(experiment)
    dropped = [key for key in keys
               if key not in cells or cells[key]["status"] != "ok"]
    module = _cell_modules().get(experiment)
    if module is None:
        record = cells.get(GENERIC_CELL)
        if record is None or record["status"] != "ok":
            return None, dropped
        return ExperimentTable(**record["payload"]["table"]), dropped
    table = module.table_skeleton(scale=scale, seed=seed)
    for key in keys:
        record = cells.get(key)
        if record is None or record["status"] != "ok":
            continue
        for row in record["payload"]["rows"]:
            table.add_row(*row)
    return table, dropped


def _runner_command(*args):
    return [sys.executable, "-m", "repro.evalx.runner", *args]


def _cell_command(experiment, key, scale, seed, attempt):
    return _runner_command(
        "run-cell", experiment, key, "--scale", str(scale),
        "--seed", str(seed), "--attempt", str(attempt))


def _cell_env():
    """Child environment with this package's source tree importable.

    The trace-cache directory is pinned to an absolute path so every
    cell subprocess — including those running under ``--jobs N`` from a
    different working directory — shares one cache: the first cell to
    need a workload records it, every other cell replays it.
    """
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src if not existing
                         else src + os.pathsep + existing)
    from repro.trace import cache as trace_cache

    env[trace_cache.ENV_DIR] = str(
        pathlib.Path(trace_cache.cache_dir()).resolve()
    )
    return env


def _fork_refusal(env):
    """Why this process may not fork warm parents for cells run under
    ``env``, or ``None`` if it may.

    Besides :func:`repro.ioutil.fork_unavailable`'s reasons, a fresh
    interpreter under ``env`` must import from no directory this one
    lacks: a ``PYTHONPATH`` entry missing from ``sys.path`` may hold a
    ``sitecustomize`` or a module of its own that only an exec'd
    parent would load.
    """
    reason = fork_unavailable()
    if reason is not None:
        return reason
    on_path = {os.path.realpath(entry) for entry in sys.path}
    entries = env.get("PYTHONPATH") or ""
    # an empty entry of a non-empty PYTHONPATH is the working directory
    for entry in entries.split(os.pathsep) if entries else ():
        if os.path.realpath(entry) not in on_path:
            return f"PYTHONPATH entry {entry!r} is not on sys.path"
    return None


def _output_tail(data, limit=200):
    """Last ``limit`` chars of a subprocess's (partial) output.

    ``TimeoutExpired`` hands back whatever the pipe held when the
    watchdog killed the child — as bytes, even under ``text=True`` —
    so both types are accepted and newlines flattened for a one-line
    journal error field.
    """
    if not data:
        return ""
    if isinstance(data, bytes):
        data = data.decode("utf-8", "replace")
    return " | ".join(data.strip().splitlines())[-limit:]


def _signal_group(proc, signum):
    """Signal a child's whole process group (fall back to the child
    alone when the group is already gone or unreachable)."""
    try:
        os.killpg(os.getpgid(proc.pid), signum)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            proc.send_signal(signum)
        except (ProcessLookupError, OSError):
            pass


def watched_run(command, env=None, timeout=None, grace=2.0):
    """Run ``command`` in its own process group under a wall-clock
    watchdog; returns ``(returncode, stdout, stderr, timed_out)``.

    On watchdog expiry the *entire group* is SIGTERMed, then — after
    ``grace`` seconds for signal-compliant children to flush and exit —
    SIGKILLed.  ``start_new_session`` puts the cell and everything it
    spawns into one group, so a cell whose children ignore SIGTERM (or
    that double-forks workers of its own) cannot outlive its sweep and
    keep writing into the trace cache.  Whatever the cell printed
    before dying is still captured and returned.

    Inside a :class:`WarmCells` scope this runner's own ``run-cell``
    command is forked from the calling thread's warm parent instead of
    exec'd, with the same session, watchdog and result; any other
    command, and every call outside a scope, is exec'd.
    """
    scope = _SCOPE
    if (scope is not None
            and list(command[:4]) == _runner_command("run-cell")):
        result = scope.run(list(command[3:]),
                           dict(os.environ) if env is None else env,
                           timeout, grace)
        if result is not None:
            return result
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        return proc.returncode, stdout, stderr, False
    except subprocess.TimeoutExpired:
        _signal_group(proc, signal.SIGTERM)
        try:
            stdout, stderr = proc.communicate(timeout=max(0.1, grace))
        except subprocess.TimeoutExpired:
            _signal_group(proc, signal.SIGKILL)
            stdout, stderr = proc.communicate()
        return proc.returncode, stdout, stderr, True
    except BaseException:
        _signal_group(proc, signal.SIGKILL)
        proc.communicate()
        raise


# -- warm cells ------------------------------------------------------------
#
# A cell's own work is a few tens of milliseconds; starting Python and
# importing the runner and the cell modules costs more.  So inside a
# WarmCells scope each executor thread keeps one warm parent: a process
# that has done a run-cell's imports once and forks one child per cell
# attempt.  A sweep forks its parents from its own process before its
# pool starts (_fork_parent), where _fork_refusal allows; any other
# parent is an exec'd interpreter (the internal ``warm-parent``
# subcommand).  Either way the parent starts as a fresh interpreter
# would, and each child is a fresh run-cell in every way that matters:
# its own session, stdin from /dev/null, its own output captures, a
# chaos plane armed but unconsumed, empty in-process memos, and the
# exit status a fresh interpreter would give.  The parent runs no cell
# code itself.
#
# Protocol, one JSON object per line: the executor writes
# {"argv": [...]} and, while that cell runs, {"signal": N}; the parent
# answers {"pid": P} (or {"refused": reason}) and, once it has reaped
# P, {"status": S, "stdout": ..., "stderr": ...} with the captures
# sent as latin-1 text.

#: how long a warm parent may take to answer once its cell's group has
#: been SIGKILLed, before the executor gives up on it
_ANSWER_S = 5.0


def _readable(fds, timeout=None):
    """Those of ``fds`` ready to read within ``timeout`` seconds (None:
    wait); ``poll`` has no ceiling on descriptor numbers, ``select``
    has."""
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    wait = None if timeout is None else math.ceil(max(0.0, timeout) * 1e3)
    return [fd for fd, _ in poller.poll(wait)]


def _send(fd, message):
    """Write one JSON line to a pipe; False if its reader is gone."""
    data = (json.dumps(message) + "\n").encode()
    try:
        while data:
            data = data[os.write(fd, data):]
    except OSError:
        return False
    return True


class _Lines:
    """JSON messages, one per line, read from a raw pipe descriptor."""

    def __init__(self, fd):
        self.fd = fd
        self.buffer = b""
        self.eof = False

    def feed(self):
        chunk = os.read(self.fd, 1 << 16)
        self.eof = not chunk
        self.buffer += chunk

    def pop(self):
        """The next complete message, or ``None``."""
        line, newline, rest = self.buffer.partition(b"\n")
        if not newline:
            return None
        self.buffer = rest
        return json.loads(line)

    def next(self, deadline=None):
        """The next message, or ``None`` once ``deadline`` (a
        ``time.monotonic()`` value) has passed; EOFError at the end."""
        while True:
            message = self.pop()
            if message is not None:
                return message
            if self.eof:
                raise EOFError("pipe closed")
            if deadline is not None and not _readable(
                    [self.fd], deadline - time.monotonic()):
                return None
            self.feed()


def _warm_parent():
    """The ``warm-parent`` subcommand: fork one ``run-cell`` per request.

    Imports what a ``run-cell`` imports before its cell, then serves
    requests from stdin until EOF.  It forks only where
    :func:`repro.ioutil.fork_unavailable` allows, and otherwise says
    why, so the executor execs that attempt.  It never runs cell code,
    starts a thread or calls ``waitpid(-1)``.  If the executor dies,
    the in-flight cell finishes in its own session and the parent
    exits after reaping it.
    """
    _cell_modules()
    requests = _Lines(0)
    while True:
        try:
            request = requests.next()
        except EOFError:
            return 0
        if "argv" not in request:
            continue  # a signal for a cell that has already been reaped
        reason = fork_unavailable()
        if reason is not None:
            if not _send(1, {"refused": reason}):
                return 0
            continue
        # a child inherits unflushed buffers and would flush them into
        # its own captures
        sys.stdout.flush()
        sys.stderr.flush()
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            _warm_child(request["argv"], out_w, err_w, (out_r, err_r))
        os.close(out_w)
        os.close(err_w)
        answered = _send(1, {"pid": pid})
        status, out, err = _watch_cell(pid, out_r, err_r,
                                       requests if answered else None)
        answered = answered and _send(1, {
            "status": status, "stdout": out.decode("latin-1"),
            "stderr": err.decode("latin-1")})
        if not answered or requests.eof:
            return 0


def _warm_child(argv, out_w, err_w, inherited):
    """The forked cell; leaves through ``os._exit`` and never returns.

    So it never runs the parent's loop, an atexit hook or a buffer it
    inherited; it flushes only its own stdio, as an exiting interpreter
    does.
    """
    status = 1
    try:
        os.setsid()
        for fd in inherited:
            os.close(fd)
        null = os.open(os.devnull, os.O_RDONLY)
        for fd, target in ((null, 0), (out_w, 1), (err_w, 2)):
            os.dup2(fd, target)
            os.close(fd)
        status = _exit_status(argv)
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _exit_status(argv):
    """Run ``main(argv)``; returns the status a fresh interpreter would
    exit with, printing the traceback of an uncaught exception."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except BaseException:
        kind, exc, trace = sys.exc_info()
        sys.excepthook(kind, exc, trace.tb_next)
        return 1
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


def _fork_parent(env):
    """Fork a warm parent for cells run under ``env`` from this process;
    returns ``Popen``-like access to it (:class:`_ForkedProc`).  Call it
    only where :func:`_fork_refusal` allows."""
    requests_r, requests_w = os.pipe()
    replies_r, replies_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        _forked_parent(env, requests_r, replies_w)
    os.close(requests_r)
    os.close(replies_w)
    return _ForkedProc(pid, requests_w, replies_r)


def _forked_parent(env, requests, replies):
    """The forked side of :func:`_fork_parent`; leaves through
    ``os._exit`` and never returns.

    Before it reads a request it becomes what an exec'd ``warm-parent``
    is: the leader of its own session, holding no descriptor but its
    request pipe (fd 0), its reply pipe (fd 1) and stderr, with stdio
    streams, environment, signal handlers and chaos plane of its own,
    and none of what :func:`_start_afresh` forgets.
    """
    status = 1
    # the sweep's streams stay referenced until the exit, so this
    # process never flushes what they still hold into its own pipes
    inherited = [sys.stdin, sys.stdout, sys.stderr, sys.__stdin__,
                 sys.__stdout__, sys.__stderr__]
    try:
        os.setsid()
        os.dup2(requests, 0)
        os.dup2(replies, 1)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        _fresh_stdio(env)
        os.environ.clear()
        os.environ.update(env)
        _chaos.refresh_from_env()
        for signum in signal.valid_signals():
            handler = signal.getsignal(signum)
            if callable(handler) and handler is not signal.default_int_handler:
                signal.signal(signum, signal.default_int_handler
                              if signum == signal.SIGINT else signal.SIG_DFL)
        _start_afresh()
        # what this process left for the collector stays uncollected,
        # so no object it owned closes a descriptor a cell has reused
        gc.freeze()
        status = _warm_parent()
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


def _fresh_stdio(env):
    """``sys.stdin``, ``sys.stdout`` and ``sys.stderr`` (and their
    ``__std*__`` twins) over fds 0-2, as a fresh interpreter under
    ``env`` builds them."""
    unbuffered = bool(env.get("PYTHONUNBUFFERED"))
    for fd, name in enumerate(("stdin", "stdout", "stderr")):
        started = getattr(sys, f"__{name}__")
        writes = fd > 0
        buffer = open(fd, "wb" if writes else "rb", closefd=False,
                      buffering=0 if writes and unbuffered else -1)
        raw = getattr(buffer, "raw", buffer)
        raw.name = f"<{name}>"
        stream = io.TextIOWrapper(
            buffer, encoding=getattr(started, "encoding", None),
            errors=("backslashreplace" if name == "stderr"
                    else getattr(started, "errors", None)),
            newline="\n", write_through=unbuffered,
            line_buffering=not unbuffered and (fd == 2 or raw.isatty()))
        stream.mode = "w" if writes else "r"
        setattr(sys, name, stream)
        setattr(sys, f"__{name}__", stream)


def _start_afresh():
    """Forget what this process accumulated and a fresh interpreter
    starts without: the trace cache's memo, counters and degradation
    rung, the result and fan-out counters, open capacity plans, the
    oracle's table and analysis memos, and this runner's scope."""
    global _SCOPE
    from repro.evalx import common
    from repro.trace import cache, columnar, oracle

    cache._memo.clear()
    cache.STATS.reset()
    cache.reset_degradation()
    common.RESULT_STATS.reset()
    common.FANOUT.reset()
    common._PLAN.clear()
    oracle._TABLE_MEMO.clear()
    columnar._ANALYSES.clear()
    _SCOPE = None


class _ForkedProc:
    """What :class:`_WarmParent` uses of ``Popen``, for a parent forked
    from this process."""

    def __init__(self, pid, stdin, stdout):
        self.pid = pid
        self.stdin = open(stdin, "wb", buffering=0)
        self.stdout = open(stdout, "rb", buffering=0)
        self.returncode = None

    def poll(self):
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self):
        if self.returncode is None:
            _, status = os.waitpid(self.pid, 0)
            self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def kill(self):
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)


def _signal_cell(pid, signum):
    """Signal a warm child's whole group; before its ``setsid`` there is
    no such group yet, and the child alone is all there is to signal."""
    try:
        os.killpg(pid, signum)
    except ProcessLookupError:
        try:
            os.kill(pid, signum)
        except OSError:
            pass


def _watch_cell(pid, out_r, err_r, requests):
    """Drain a child's captures and relay signal requests to its group
    until both captures are closed and the child has exited; returns
    ``(status, stdout, stderr)``, the status as ``Popen.returncode``.

    As with ``communicate()`` on an exec'd cell, a group member still
    holding a capture keeps the cell running, and the child is reaped
    only after both captures are closed, so no signal ever reaches a
    reaped pid.
    """
    captured = {out_r: [], err_r: []}
    open_fds = [out_r, err_r]
    try:
        exited = os.pidfd_open(pid)
    except (AttributeError, OSError):
        exited = None  # no pidfd here: poll for the exit
    try:
        while True:
            while requests is not None:
                message = requests.pop()
                if message is None:
                    break
                if "signal" in message:
                    _signal_cell(pid, message["signal"])
            if not open_fds:
                done, raw = os.waitpid(pid, os.WNOHANG)
                if done:
                    return (os.waitstatus_to_exitcode(raw),
                            b"".join(captured[out_r]),
                            b"".join(captured[err_r]))
            watch = list(open_fds)
            if requests is not None and not requests.eof:
                watch.append(requests.fd)
            if not open_fds and exited is not None:
                watch.append(exited)
            poll = 0.005 if not open_fds and exited is None else None
            for fd in _readable(watch, poll):
                if fd in open_fds:
                    chunk = os.read(fd, 1 << 16)
                    if chunk:
                        captured[fd].append(chunk)
                    else:
                        open_fds.remove(fd)
                elif requests is not None and fd == requests.fd:
                    requests.feed()
    finally:
        for fd in (out_r, err_r, exited):
            if fd is not None:
                os.close(fd)


def _text(latin1):
    """A capture as ``Popen(text=True)`` decodes it."""
    return io.TextIOWrapper(io.BytesIO(latin1.encode("latin-1"))).read()


class _WarmParent:
    """The executor's end of one warm parent, forked from this process
    (``fork=True``) or exec'd."""

    def __init__(self, env, fork=False):
        self.env = env
        self.proc = _fork_parent(env) if fork else subprocess.Popen(
            _runner_command("warm-parent"), env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            start_new_session=True)
        self.replies = _Lines(self.proc.stdout.fileno())
        self.forks = 0

    def _send(self, message):
        if not _send(self.proc.stdin.fileno(), message):
            raise EOFError("warm parent closed its stdin")

    def _result(self, deadline):
        """The cell's result, or ``None`` once ``deadline`` passes."""
        while True:
            reply = self.replies.next(deadline)
            if reply is None or "pid" not in reply:
                return reply

    def run(self, argv, timeout, grace):
        """One cell attempt: ``watched_run``'s tuple, or the parent's
        reason for not forking it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        timed_out = False
        try:
            self._send({"argv": argv})
            reply = self.replies.next(deadline)
            if reply is None:
                return self._abandon("stopped answering", True)
            if "refused" in reply:
                return reply["refused"]
            self.forks += 1
            result = self._result(deadline)
            timed_out = result is None
            if timed_out:
                self._send({"signal": int(signal.SIGTERM)})
                result = self._result(time.monotonic() + max(0.1, grace))
            if result is None:
                self._send({"signal": int(signal.SIGKILL)})
                result = self._result(time.monotonic() + _ANSWER_S)
            if result is None:
                return self._abandon("stopped answering", timed_out)
        except (EOFError, OSError):
            return self._abandon("died", timed_out)
        except ValueError:
            return self._abandon("sent an unreadable reply", timed_out)
        except BaseException:
            try:
                self._send({"signal": int(signal.SIGKILL)})
                self._result(time.monotonic() + _ANSWER_S)
            except Exception:
                pass
            self._abandon("was interrupted")
            raise
        return (result["status"], _text(result["stdout"]),
                _text(result["stderr"]), timed_out)

    def _abandon(self, what, timed_out=False):
        """Kill and reap this parent; the attempt fails, named."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.close()
        return (self.proc.returncode or 1, "", f"warm parent {what} "
                "mid-cell", timed_out)

    def hang_up(self):
        """EOF on the parent's stdin, which ends it after its cell."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass

    def close(self):
        """Hang up, then reap the parent."""
        self.hang_up()
        self.proc.wait()
        self.proc.stdout.close()


class WarmCells:
    """A scope whose ``run-cell`` attempts fork from warm parents.

    Inside it, :func:`watched_run` hands each of this runner's
    ``run-cell`` commands to the calling thread's warm parent: one
    :meth:`fork_parents` forked, or else one exec'd at that thread's
    first cell, with that cell's environment.  A parent is replaced,
    by an exec'd one, when a cell's environment differs or the parent
    has died.  Leaving the scope ends and reaps every parent it
    started, so nothing outlives it and their cells' usage reaches
    ``RUSAGE_CHILDREN``.  The counts say how its attempts and parents
    launched.
    """

    def __init__(self):
        self.lock = threading.Lock()
        #: executor thread ident -> its warm parent
        self.parents = {}
        #: forked parents no thread has claimed yet
        self.spare = []
        self.attempts = 0
        self.forked = 0
        self.forked_by = set()
        #: reason -> attempts exec'd for it
        self.execd = {}
        #: parents :meth:`fork_parents` forked, or why it forked none
        self.parents_forked = 0
        self.parents_execd = None
        self._outer = None

    def __enter__(self):
        global _SCOPE
        self._outer, _SCOPE = _SCOPE, self
        return self

    def __exit__(self, *exc_info):
        global _SCOPE
        _SCOPE = self._outer
        with self.lock:
            parents = list(self.parents.values()) + self.spare
            self.parents.clear()
            self.spare = []
        for parent in parents:
            parent.hang_up()
        for parent in parents:
            parent.close()

    def fork_parents(self, count, env):
        """Fork ``count`` warm parents for cells run under ``env`` from
        this process, for the executor's threads to claim; call it
        before the executor starts a thread.  Where
        :func:`_fork_refusal` does not allow it, each thread execs its
        own parent, and :meth:`describe` says why."""
        if not hasattr(os, "fork"):
            return  # no parent at all: run() execs every attempt
        self.parents_execd = _fork_refusal(env)
        if self.parents_execd is None:
            for _ in range(count):
                self.spare.append(_WarmParent(env, fork=True))
                self.parents_forked += 1

    def _exec(self, reason):
        with self.lock:
            self.execd[reason] = self.execd.get(reason, 0) + 1

    def run(self, argv, env, timeout, grace):
        """One ``run-cell`` attempt forked from this thread's warm
        parent; ``None`` when it must be exec'd instead."""
        with self.lock:
            self.attempts += 1
        if not hasattr(os, "fork"):
            self._exec("no os.fork")
            return None
        ident = threading.get_ident()
        with self.lock:
            parent = self.parents.get(ident)
            if parent is None and self.spare:
                parent = self.parents[ident] = self.spare.pop()
        if parent is not None and (parent.proc.poll() is not None
                                   or parent.env != env):
            parent.close()
            parent = None
        if parent is None:
            parent = _WarmParent(env)
            with self.lock:
                self.parents[ident] = parent
        forks = parent.forks
        outcome = parent.run(argv, timeout, grace)
        if isinstance(outcome, str):
            self._exec(f"warm parent refused: {outcome}")
            return None
        if parent.forks > forks:
            with self.lock:
                self.forked += 1
                self.forked_by.add(parent)
        return outcome

    def describe(self):
        """How this scope's attempts were launched, for a say line."""
        parts = [f"{self.forked} of {self.attempts} attempt(s) forked"
                 + (f" from {len(self.forked_by)} warm parent(s)"
                    if self.forked else "")]
        parts += [f"{count} exec'd ({reason})"
                  for reason, count in sorted(self.execd.items())]
        if self.parents_forked:
            parts.append(f"{self.parents_forked} warm parent(s) forked "
                         "from the sweep")
        elif self.parents_execd is not None:
            parts.append(f"warm parents exec'd ({self.parents_execd})")
        return "; ".join(parts)


#: the innermost open :class:`WarmCells` scope, or None
_SCOPE = None


def failure_detail(stdout, stderr, limit=200):
    """Both output tails of a failed cell, labelled, for the journal.

    Every failure path — watchdog, crash, nonzero exit — journals the
    same shape, so a ``failed`` record always carries enough debris to
    diagnose the cell without re-running it.
    """
    parts = []
    stderr_tail = _output_tail(stderr, limit)
    stdout_tail = _output_tail(stdout, limit)
    if stderr_tail:
        parts.append(f"stderr: {stderr_tail}")
    if stdout_tail:
        parts.append(f"stdout: {stdout_tail}")
    return "; ".join(parts)


def _run_cell_subprocess(experiment, key, scale, seed, attempt, timeout):
    """One watched attempt; returns ``(payload, error_or_None)``."""
    command = _cell_command(experiment, key, scale, seed, attempt)
    returncode, stdout, stderr, timed_out = watched_run(
        command, env=_cell_env(), timeout=timeout)
    if timed_out:
        error = f"watchdog: cell exceeded {timeout}s wall clock"
        detail = failure_detail(stdout, stderr)
        if detail:
            error += f"; partial output: {detail}"
        return None, error
    if returncode != 0:
        detail = failure_detail(stdout, stderr)
        return None, (f"exit status {returncode}"
                      + (f": {detail}" if detail else ""))
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            return json.loads(line), None
        except json.JSONDecodeError:
            return None, f"unparsable cell output: {line[:200]!r}"
    return None, "cell produced no output"


def resolve_jobs(jobs, cell_count):
    """Concurrency for a sweep: explicit ``jobs`` wins, else one watched
    subprocess per core, never more than there are cells to run."""
    if jobs is None:
        jobs = min(os.cpu_count() or 1, max(1, cell_count))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, max(1, cell_count))


def retry_jitter(seed, key, attempt):
    """Deterministic de-stampeding factor in ``[0.5, 1.0]``.

    Seed-derived (never wall clock or ``random``), so a sweep replays
    the identical schedule — but *different* cells retrying the same
    flaky resource back off by different amounts, so ``--jobs N``
    workers cannot hammer it in lockstep.
    """
    digest = zlib.crc32(f"{seed}|{key}|{attempt}".encode())
    return 0.5 + (digest / 0xFFFFFFFF) / 2


def retry_delay(backoff, attempt, seed, key):
    """One cell's jittered exponential backoff before retry ``attempt``."""
    return backoff * (2 ** attempt) * retry_jitter(seed, key, attempt)


def _attempt_cell(experiment, key, scale, seed, timeout, retries,
                  backoff, say):
    """All watched attempts for one cell; returns
    ``(payload, error_or_None, attempts)``."""
    payload = None
    error = None
    attempts = 0
    for attempt in range(retries + 1):
        attempts = attempt + 1
        payload, error = _run_cell_subprocess(
            experiment, key, scale, seed, attempt, timeout)
        if error is None:
            break
        say(f"cell {key}: attempt {attempts} failed ({error})")
        if attempt < retries and backoff > 0:
            # deterministic exponential schedule with seeded jitter
            time.sleep(retry_delay(backoff, attempt, seed, key))
    return payload, error, attempts


class SweepResult:
    """What one (possibly resumed) sweep invocation did."""

    def __init__(self, experiment, scale, seed, table, keys, ran,
                 skipped, dropped_keys, journal_dropped, out_path,
                 deviations):
        self.experiment = experiment
        self.scale = scale
        self.seed = seed
        self.table = table
        self.keys = keys
        self.ran = ran
        self.skipped = skipped
        self.dropped_keys = dropped_keys
        self.journal_dropped = journal_dropped
        self.out_path = out_path
        self.deviations = deviations

    @property
    def ok(self):
        return not self.dropped_keys and not self.deviations


def run_sweep(experiment, scale=1.0, seed=1, journal_path=None,
              out_path=None, resume=False, timeout=None, retries=1,
              backoff=0.0, check=False, stream=None, jobs=None):
    """Run (or resume) one journalled sweep; returns a SweepResult.

    ``jobs`` bounds the pool of concurrent cell subprocesses (None =
    one per core, capped at the cell count).  Whatever the pool size,
    journal records are committed in cell order and the output file is
    byte-identical to a ``jobs=1`` run.
    """
    say_lock = threading.Lock()

    def say(message):
        if stream is not None:
            with say_lock:
                stream.write(message + "\n")

    if journal_path is None:
        journal_path = pathlib.Path(
            "benchmarks", "results", f"{experiment}.journal.jsonl")
    if out_path is None:
        out_path = pathlib.Path(
            "benchmarks", "results", f"{experiment}-sweep.json")
    journal = Journal(journal_path)
    journal_dropped = 0
    if journal.exists():
        if not resume:
            raise JournalError(
                f"{journal.path} already exists; pass resume "
                "(--resume) to continue it, or delete it to start over"
            )
        trimmed = journal.recover_tail()
        if trimmed:
            say(f"journal: truncated {trimmed} byte(s) of torn tail")
        if journal.path.stat().st_size == 0:
            # every record was torn away: start clean, don't refuse
            journal.write_header(experiment, scale, seed)
            cells = {}
        else:
            cells, journal_dropped = journal.check_header(
                experiment, scale, seed)
        if journal_dropped:
            say(f"journal: dropped {journal_dropped} corrupt/truncated "
                "record(s); their cells will re-run")
    else:
        journal.write_header(experiment, scale, seed)
        cells = {}

    keys = sweep_cells(experiment)
    pending = [key for key in keys
               if not (key in cells and cells[key]["status"] == "ok")]
    skipped = len(keys) - len(pending)
    ran = 0

    def commit(key, payload, error, attempts):
        if error is None:
            cells[key] = journal.append_cell(key, "ok", payload=payload,
                                             attempts=attempts)
        else:
            cells[key] = journal.append_cell(key, "failed",
                                             attempts=attempts,
                                             error=error)

    workers = resolve_jobs(jobs, len(pending))
    with WarmCells() as launches:
        if pending:
            launches.fork_parents(workers, _cell_env())
        if workers <= 1:
            for key in pending:
                payload, error, attempts = _attempt_cell(
                    experiment, key, scale, seed, timeout, retries,
                    backoff, say)
                ran += 1
                commit(key, payload, error, attempts)
        elif pending:
            # imported here: a run-cell subprocess never builds a pool
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {
                    key: pool.submit(_attempt_cell, experiment, key,
                                     scale, seed, timeout, retries,
                                     backoff, say)
                    for key in pending
                }
                # Journal commits happen here, in deterministic cell
                # order: a cell that finishes early waits (buffered in
                # its future) until every earlier cell has been
                # committed, so the journal an interrupted run leaves
                # behind is always an order-prefix of the sequential
                # run's journal.
                for key in pending:
                    payload, error, attempts = futures[key].result()
                    ran += 1
                    commit(key, payload, error, attempts)

    table, dropped_keys = assemble_table(experiment, scale, seed, cells)
    if dropped_keys:
        say(f"WARNING: {len(dropped_keys)} of {len(keys)} cell(s) "
            f"dropped after {retries + 1} attempt(s) each: "
            + ", ".join(dropped_keys))
        if table is not None:
            table.notes = (table.notes + " " if table.notes else "") + (
                f"[PARTIAL: {len(dropped_keys)} of {len(keys)} "
                "cell(s) dropped]")
    deviations = []
    if check and table is not None:
        from repro.evalx.golden import compare_table

        deviations = compare_table(experiment, table, scale=scale,
                                   seed=seed)
        for deviation in deviations:
            say(f"DEVIATION: {deviation}")
    if table is not None:
        out_payload = {
            "experiment": experiment,
            "scale": scale,
            "seed": seed,
            **table.to_dict(),
        }
        # read-back verification: the output file is the one artifact
        # nothing downstream re-validates, so a torn rename or bit
        # flip here is converted into a retryable EIO instead of a
        # silently wrong number
        atomic_write_text(pathlib.Path(out_path),
                          json.dumps(out_payload, indent=1,
                                     sort_keys=True),
                          site="results.write", attempts=3,
                          verify=True)
        say(f"sweep {experiment}: {ran} cell(s) ran, {skipped} resumed "
            f"from journal -> {out_path}"
            + (f"; {launches.describe()}" if launches.attempts else ""))
    return SweepResult(experiment, scale, seed, table, keys, ran,
                       skipped, dropped_keys, journal_dropped,
                       pathlib.Path(out_path), deviations)


# -- chaos self-test -------------------------------------------------------


def _journal_records(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())
    except FileNotFoundError:
        return 0


def _sweep_command(experiment, scale, seed, journal, out, jobs=None):
    command = _runner_command(
        "sweep", experiment, "--scale", str(scale), "--seed", str(seed),
        "--resume", "--journal", str(journal), "--out", str(out))
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    return command


def smoke(experiment="compression", scale=0.2, seed=7, kills=3,
          check=False, workdir=None, stream=None, jobs=None,
          chaos_seed=None):
    """Kill-and-resume chaos test; returns 0 iff resumption is exact.

    Runs the sweep once uninterrupted, then again while SIGKILLing the
    sweep process at ``kills`` seeded journal-growth boundaries and
    resuming each time.  The two output files must be byte-identical —
    the resumable path may not perturb a single stat.

    ``chaos_seed`` additionally arms a :class:`repro.chaos.FaultPlane`
    (via ``REPRO_CHAOS_SEED``) inside the killed-and-resumed sweep —
    torn renames, bit flips, disk-full and worker crashes land *on top
    of* the SIGKILLs, and the output must still match the fault-free
    reference byte for byte.  The chaos sweep gets a private
    trace-cache directory so injected corruption never dirties the
    shared cache.
    """

    def say(message):
        if stream is not None:
            stream.write(message + "\n")

    if check:
        from repro.evalx.golden import GOLDEN_SCALE, GOLDEN_SEED

        scale, seed = GOLDEN_SCALE, GOLDEN_SEED
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="resume-smoke-")
    workdir = pathlib.Path(workdir)
    ref_out = workdir / "reference.json"
    chaos_out = workdir / "chaos.json"
    chaos_journal = workdir / "chaos.journal.jsonl"

    say(f"reference sweep ({experiment}, scale={scale}, seed={seed}, "
        f"jobs={jobs if jobs is not None else 'auto'})")
    reference = run_sweep(experiment, scale=scale, seed=seed,
                          journal_path=workdir / "reference.jsonl",
                          out_path=ref_out, stream=stream, jobs=jobs)
    if reference.dropped_keys:
        say("FAIL: reference sweep dropped cells")
        return 1

    chaos_env = _cell_env()
    if chaos_seed is not None:
        from repro.trace import cache as trace_cache

        chaos_env[_chaos.ENV_SEED] = str(chaos_seed)
        private_cache = workdir / "chaos-trace-cache"
        private_cache.mkdir(parents=True, exist_ok=True)
        chaos_env[trace_cache.ENV_DIR] = str(private_cache.resolve())
        say(f"fault plane armed: {_chaos.ENV_SEED}={chaos_seed} "
            "(private trace cache)")

    cell_count = len(sweep_cells(experiment))
    rng = random.Random(seed)
    population = list(range(1, max(2, cell_count)))
    targets = sorted(rng.sample(population,
                                min(kills, len(population))))
    say(f"chaos sweep: SIGKILL after journal reaches "
        f"{targets} cell record(s)")
    kills_done = 0
    for launch in range(len(targets) + kills + 2):
        target = targets[kills_done] if kills_done < len(targets) else None
        proc = subprocess.Popen(
            _sweep_command(experiment, scale, seed, chaos_journal,
                           chaos_out, jobs=jobs),
            env=chaos_env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        while True:
            if proc.poll() is not None:
                break
            # header line + completed cell records
            if (target is not None
                    and _journal_records(chaos_journal) > target):
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                kills_done += 1
                say(f"  kill {kills_done}: SIGKILL at "
                    f"{_journal_records(chaos_journal)} journal "
                    "record(s); resuming")
                break
            time.sleep(0.01)
        if proc.returncode == 0:
            break
    else:
        say("FAIL: chaos sweep never completed")
        return 1

    if kills_done < min(kills, len(targets)):
        say(f"FAIL: only {kills_done} kill(s) landed before the sweep "
            "finished; shrink --scale or raise --kills")
        return 1
    ref_bytes = ref_out.read_bytes()
    chaos_bytes = chaos_out.read_bytes()
    if ref_bytes != chaos_bytes:
        say("FAIL: resumed sweep output differs from the "
            "uninterrupted run")
        return 1
    say(f"resume smoke clean: {kills_done} SIGKILL(s), resumed output "
        "byte-identical to the uninterrupted sweep")
    if check:
        from repro.evalx.golden import compare_table

        deviations = compare_table(experiment, reference.table,
                                   scale=scale, seed=seed)
        if deviations:
            for deviation in deviations:
                say(f"DEVIATION: {deviation}")
            return 1
        say(f"golden check clean: sweep matches the {experiment} golden")
    return 0


# -- CLI -------------------------------------------------------------------


def _maybe_hook_failures(experiment, key, attempt):
    """Honour the fail/hang test hooks and the chaos fault plane;
    returns an exit code or None."""
    fail_spec = os.environ.get(FAIL_CELLS_ENV, "")
    for part in filter(None, (p.strip() for p in fail_spec.split(","))):
        hook_key, _, count = part.rpartition(":")
        if hook_key == key and attempt < int(count):
            print(f"injected failure for cell {key!r} "
                  f"(attempt {attempt})", file=sys.stderr)
            return 1
    hang_spec = os.environ.get(HANG_CELLS_ENV, "")
    if key in [p.strip() for p in hang_spec.split(",") if p.strip()]:
        # flushed before parking so the watchdog's partial-output
        # capture has a tail to journal
        print(f"injected hang for cell {key!r}; parking", flush=True)
        while True:  # parked until the watchdog kills us
            time.sleep(60)
    plane = _chaos.ACTIVE
    if plane is not None:
        kind = plane.process_fault(f"{experiment}/{key}", attempt)
        if kind == "crash":
            print(f"chaos[crash]: injected worker crash for cell "
                  f"{key!r}", file=sys.stderr)
            return 1
        if kind == "hang":
            print(f"chaos[hang]: parking cell {key!r} until the "
                  "watchdog fires", flush=True)
            while True:
                time.sleep(60)
        if kind == "slow":
            time.sleep(plane.slow_delay)
    return None


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Crash-safe, resumable experiment sweeps."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="run or resume a sweep")
    sweep_p.add_argument("experiment")
    sweep_p.add_argument("--scale", type=float, default=1.0)
    sweep_p.add_argument("--seed", type=int, default=1)
    sweep_p.add_argument("--journal", default=None)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--resume", action="store_true",
                         help="continue an existing journal")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="wall-clock watchdog per cell (seconds)")
    sweep_p.add_argument("--retries", type=int, default=1)
    sweep_p.add_argument("--backoff", type=float, default=0.0,
                         help="base of the exponential retry delay")
    sweep_p.add_argument("--check", action="store_true",
                         help="diff the assembled table vs its golden")
    sweep_p.add_argument("--jobs", type=int, default=None,
                         help="parallel cell workers (default "
                              "min(cpu_count, cells); 1 = sequential)")
    sweep_p.add_argument("--engine", choices=("event", "oracle"),
                         default=None,
                         help="replay engine for every cell (exported "
                              "as REPRO_REPLAY_ENGINE to cell "
                              "subprocesses; default: inherited env "
                              "or event replay)")

    cell_p = sub.add_parser("run-cell",
                            help="run one sweep cell (internal)")
    cell_p.add_argument("experiment")
    cell_p.add_argument("key")
    cell_p.add_argument("--scale", type=float, default=1.0)
    cell_p.add_argument("--seed", type=int, default=1)
    cell_p.add_argument("--attempt", type=int, default=0)

    sub.add_parser("warm-parent",
                   help="fork one run-cell per request read on stdin "
                        "(internal)")

    smoke_p = sub.add_parser("smoke",
                             help="kill-and-resume chaos self-test")
    smoke_p.add_argument("--experiment", default="compression")
    smoke_p.add_argument("--scale", type=float, default=0.2)
    smoke_p.add_argument("--seed", type=int, default=7)
    smoke_p.add_argument("--kills", type=int, default=3)
    smoke_p.add_argument("--check", action="store_true",
                         help="also diff the sweep vs its golden "
                              "(forces golden scale/seed)")
    smoke_p.add_argument("--workdir", default=None)
    smoke_p.add_argument("--jobs", type=int, default=None,
                         help="parallel cell workers for both the "
                              "reference and the chaos-killed sweeps")
    smoke_p.add_argument("--chaos-seed", type=int, default=None,
                         help="arm the storage/process fault plane "
                              "(REPRO_CHAOS_SEED) inside the killed "
                              "sweep")

    args = parser.parse_args(argv)
    if getattr(args, "engine", None):
        # _cell_env() copies os.environ, so the selector reaches every
        # cell subprocess automatically
        from repro.trace.columnar import ENV_ENGINE

        os.environ[ENV_ENGINE] = args.engine
    if args.command == "warm-parent":
        return _warm_parent()
    if args.command == "run-cell":
        hooked = _maybe_hook_failures(args.experiment, args.key,
                                      args.attempt)
        if hooked is not None:
            return hooked
        payload = run_cell(args.experiment, args.key, scale=args.scale,
                           seed=args.seed)
        print(json.dumps(payload, sort_keys=True,
                         separators=(",", ":")))
        return 0
    if args.command == "smoke":
        return smoke(experiment=args.experiment, scale=args.scale,
                     seed=args.seed, kills=args.kills, check=args.check,
                     workdir=args.workdir, stream=sys.stdout,
                     jobs=args.jobs, chaos_seed=args.chaos_seed)
    result = run_sweep(
        args.experiment, scale=args.scale, seed=args.seed,
        journal_path=args.journal, out_path=args.out,
        resume=args.resume, timeout=args.timeout, retries=args.retries,
        backoff=args.backoff, check=args.check, stream=sys.stdout,
        jobs=args.jobs,
    )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())

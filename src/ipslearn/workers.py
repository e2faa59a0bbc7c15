"""Forked worker processes: the one place the program forks.

`run_forked` runs work in forked children next to the parent's own share.
Four kinds of work go through it: the CSV writer's row shares (`runner`),
and, through `map_claimed`, the sizes of a sweep (`diagnostics`), the
replicate slices of a batch (`batch`) and the units of an `estimate` or
`simulate` run, its batch beside its trajectory dumps (`runner`).  Its
rules:

- each child's temporary file is made by the caller before the fork;
- a child leaves by os._exit, so that no atexit hook runs and none of the
  buffers inherited from the parent (its stdout, an open CSV) is flushed a
  second time;
- the parent reaps every child in a `finally`; when it leaves by an
  exception (an error, Ctrl-C), it kills the children still running first,
  so no worker outlives the call;
- a share whose fork fails (os.fork raises OSError: EAGAIN, ENOMEM) runs in
  the parent, after its own, as do the shares after it;
- a child has only the thread that forked it; the Cucker-Smale pool
  starts threads of its own there (`models` resets it at each fork);
- the program forks on Linux only (FORK); elsewhere callers run inline.

No output depends on the number of processes.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import struct
import sys
import tempfile

from . import models

FORK = sys.platform == "linux"
_CLAIM = struct.Struct("=I")  # one item index in the claim pipe


def run_forked(files, child, parent):
    """Run parent() here and child(k, files[k]) in one forked child per
    file, all at the same time.  Returns the exit code of each child, in
    order: 0 when child returned (and its file was flushed), 1 when it
    raised (its traceback goes to stderr), -s when it was killed by signal s.

    When a fork fails, that share and every later one run here, in order,
    after parent(): each returns 0 with its file flushed, or raises as
    inline.
    """
    pids, ok = [], False
    try:
        for k, fh in enumerate(files):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the shares left run here
                break
            if pid == 0:
                _run_child_and_exit(child, k, fh)
            pids.append(pid)
        parent()
        for k in range(len(pids), len(files)):
            child(k, files[k])
            files[k].flush()
        ok = True
    finally:
        codes = _reap(pids, stop=not ok)
    return codes + [0] * (len(files) - len(pids))


def _run_child_and_exit(child, k, fh):
    """The whole life of a forked child: child(k, fh), then leave by
    os._exit."""
    code = 1
    try:
        # a Ctrl-C reaches the parent, which stops its children
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        child(k, fh)
        fh.flush()
        code = 0
    except BaseException:  # the parent reports it from the exit code
        import traceback  # only a failing child needs it

        os.write(2, traceback.format_exc().encode(errors="replace"))
    finally:
        os._exit(code)


def _reap(pids, stop):
    """Wait for each child in `pids` and return their exit codes; with
    `stop`, each is killed first.  A Ctrl-C during the wait kills and reaps
    the children left before it propagates."""
    codes = []
    try:
        for pid in pids:
            if stop:
                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    except BaseException:
        if not stop:
            _reap(pids[len(codes):], True)
        raise
    return codes


def map_claimed(fn, items, order, name, fork):
    """[fn(x) for x in items], computed by this process and up to CPUs - 1
    forked children when `fork` holds, inline otherwise.

    Each process claims the next item when it is done with its last, in
    `order` (indices into `items`, the costliest first), from a pipe that
    holds every index before the fork.  The CPUs (`models._WORKERS`) are
    split among the processes, so that each one's Cucker-Smale pool gets its
    share, at least 1.  A child sends back each result pickled, through a
    temporary file.  Where a fork fails, the processes already running
    claim the items that child would have.  Where items fail, the error
    raised is that of the first failing item in `items` order, as inline:
    an item's own exception, or a RuntimeError naming (by `name`) the items
    a worker that died did not finish.  The pipe takes at most PIPE_BUF
    bytes at once, so more than PIPE_BUF / 4 items run inline.
    """
    cpus = models._WORKERS
    procs = min(cpus, len(items))
    if not (fork and FORK and procs > 1 and len(items) * _CLAIM.size <= select.PIPE_BUF):
        return [fn(x) for x in items]
    outcomes = {}  # item index -> (ok, value)

    def claims(k):
        models._WORKERS = cpus * (k + 1) // procs - cpus * k // procs
        while len(record := os.read(read_fd, _CLAIM.size)) == _CLAIM.size:
            yield _CLAIM.unpack(record)[0]

    def child(k, tmp):  # where its fork failed, run here once no claim is left
        for i in claims(k + 1):
            pickle.dump(i, tmp)  # names the item if this process dies on it
            tmp.flush()
            pickle.dump(_outcome(fn, items[i], portable=True), tmp)

    def parent():
        outcomes.update((i, _outcome(fn, items[i], portable=False)) for i in claims(0))

    with contextlib.ExitStack() as stack:
        read_fd, write_fd = os.pipe()
        stack.callback(os.close, read_fd)
        with open(write_fd, "wb") as pipe:  # closed: the last claim finds it empty
            pipe.write(b"".join(_CLAIM.pack(i) for i in order))
        tmps = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(procs - 1)]
        try:
            codes = run_forked(tmps, child, parent)
        finally:
            models._WORKERS = cpus
        claimed = [_read_back(tmp, outcomes) for tmp in tmps]
    failed = [k for k, code in enumerate(codes) if code]
    for i in range(len(items)):
        if i not in outcomes:  # its worker died
            k = next((k for k in failed if i in claimed[k]), failed[0])
            unfinished = [j for j in claimed[k] if j not in outcomes] or [i]
            raise _died(codes[k], [name(items[j]) for j in unfinished])
        ok, value = outcomes[i]
        if not ok:
            raise value
    if failed:
        raise _died(codes[failed[0]], [name(items[j]) for j in claimed[failed[0]]])
    return [outcomes[i][1] for i in range(len(items))]


def _outcome(fn, x, portable):
    """(True, fn(x)), or (False, the exception fn raised); with `portable`,
    an exception that does not survive pickling is replaced by a
    RuntimeError with its message."""
    try:
        return True, fn(x)
    except Exception as err:
        if portable:
            try:
                pickle.loads(pickle.dumps(err))
            except Exception:
                err = RuntimeError(str(err))
        return False, err


def _read_back(tmp, outcomes):
    """The indices a child claimed, in order, with the outcome of each one it
    finished put into `outcomes`."""
    tmp.seek(0)
    claimed = []
    with contextlib.suppress(EOFError, pickle.UnpicklingError):  # the end, or a cut record
        while True:
            claimed.append(pickle.load(tmp))
            outcomes[claimed[-1]] = pickle.load(tmp)
    return claimed


def _died(code, names):
    how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
    return RuntimeError(f"the worker process running {', '.join(names) or 'no item'} {how}")

"""The process rung's executor: one duplex pipe per worker process.

:class:`PipeExecutor` keeps the part of the ``concurrent.futures``
executor contract :class:`~repro.serve.pool.BulkPool` relies on —
``submit`` returns a :class:`concurrent.futures.Future`, a dead worker
fails every outstanding future with :class:`BrokenProcessPool`, and a
cancelled future's late reply is dropped — with one transport hop per
direction.  A submit pickles ``(task id, fn, payload)`` for the
least-loaded worker; one reader thread waits on every worker connection
and process sentinel and resolves each future as its reply arrives.

No write ever waits on a busy (or stalled) worker to drain its pipe.
A task is written to a worker's pipe only when the worker is idle — it
is then waiting in ``recv``, so the write finishes however large the
task — or, one task deep, when the task and the one the worker is
running fit together in a quarter of the pipe's send buffer, so the
write lands in the buffer.  Any other task waits in the worker's
backlog, and the reader writes it once it has taken the reply that
makes room.  A caller's submit thus never blocks on a worker, and a
deadline holds whatever the shard size.
"""

from __future__ import annotations

import collections
import itertools
import pickle
import selectors
import socket
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

__all__ = ["PipeExecutor"]


def _serve(conn, inherited, initializer, initargs) -> None:
    """Worker main loop: run tasks until a stop message or EOF.

    Every parent-side pipe end this child inherited through the fork is
    closed first — its own included — so that when the parent dies
    (even by SIGKILL) no process is left holding the parent's end open,
    ``recv`` sees EOF, and the worker exits instead of lingering.
    """
    for end in inherited:
        end.close()
    initializer(*initargs)
    while True:
        try:
            data = conn.recv_bytes()
        except EOFError:
            return  # the parent is gone
        if not data:
            return  # stop message
        tid, fn, payload = pickle.loads(data)
        try:
            reply = (tid, fn(payload), None)
        except Exception as exc:  # the caller's to handle, typed
            reply = (tid, None, exc)
        conn.send(reply)


class PipeExecutor:
    """``workers`` processes from the multiprocessing context ``ctx``,
    each running ``initializer(*initargs)`` once and then serving tasks
    from its own duplex pipe."""

    def __init__(self, workers: int, ctx, initializer, initargs=()):
        #: Guards the task table, worker loads, pipe accounting,
        #: backlogs and the broken/shutdown state.  Never held across a
        #: pipe write.
        self._lock = threading.Lock()
        self._pending: dict = {}  # task id -> (future, worker, size)
        self._load = [0] * workers  # tasks in flight or queued
        self._sent = [0] * workers  # messages written, not answered
        self._sent_bytes = [0] * workers
        #: Per worker: ``(task id, message)`` waiting for room in its
        #: pipe; task id None is the stop message.
        self._backlog = [collections.deque() for _ in range(workers)]
        #: Serializes the (never blocking) writes to one pipe.
        self._send_locks = [threading.Lock() for _ in range(workers)]
        self._ids = itertools.count()
        self._broken: str = ""
        self._shutdown = False
        self._conns = []
        self._procs = []
        for _ in range(workers):
            ours, theirs = ctx.Pipe(duplex=True)
            self._conns.append(ours)
            proc = ctx.Process(target=_serve, daemon=True,
                               args=(theirs, list(self._conns),
                                     initializer, initargs))
            proc.start()
            theirs.close()
            self._procs.append(proc)
        self._room = _pipeline_room(self._conns[0])
        self._reader = threading.Thread(target=self._read_loop,
                                        name="repro-pool-reader",
                                        daemon=True)
        self._reader.start()

    def submit(self, fn, payload) -> Future:
        """Run ``fn(payload)`` on the least-loaded worker."""
        tid = next(self._ids)
        # Pickled before the task is registered: an unpicklable payload
        # raises here and leaves nothing pending.
        data = pickle.dumps((tid, fn, payload), pickle.HIGHEST_PROTOCOL)
        fut: Future = Future()
        with self._lock:
            if self._broken:
                raise BrokenProcessPool(self._broken)
            if self._shutdown:
                raise RuntimeError("cannot schedule new futures after "
                                   "shutdown")
            w = min(range(len(self._load)), key=self._load.__getitem__)
            self._load[w] += 1
            self._pending[tid] = (fut, w, len(data))
            self._backlog[w].append((tid, data))
            ready = self._ready(w)
        self._send(w, ready)
        return fut

    def _ready(self, w: int) -> list:
        """Under the lock: take the messages at the head of worker
        ``w``'s backlog that may be written now, counting them as sent.
        Tasks whose futures were cancelled while queued are dropped."""
        queue, ready = self._backlog[w], []
        while queue:
            tid, data = queue[0]
            if tid is not None and self._pending[tid][0].cancelled():
                queue.popleft()
                # Wakes any ``concurrent.futures.wait`` on it; runs no
                # callbacks (``cancel`` ran those).
                self._pending.pop(tid)[0].set_running_or_notify_cancel()
                self._load[w] -= 1
                continue
            # An idle worker takes anything; a busy one a second task
            # that fits its pipe's room.  The stop message waits for
            # idle, so it always follows every task.
            if self._sent[w] and (
                    tid is None or self._sent[w] > 1
                    or self._sent_bytes[w] + len(data) > self._room):
                break
            queue.popleft()
            self._sent[w] += 1
            self._sent_bytes[w] += len(data)
            ready.append(data)
        return ready

    def _send(self, w: int, messages: list) -> None:
        """Write messages :meth:`_ready` released for worker ``w``."""
        if not messages:
            return
        with self._send_locks[w]:
            for data in messages:
                try:
                    self._conns[w].send_bytes(data)
                except OSError:
                    return  # the worker is gone; the reader fails its tasks

    def _read_loop(self) -> None:
        with selectors.DefaultSelector() as sel:
            for i, (conn, proc) in enumerate(zip(self._conns, self._procs)):
                sel.register(conn, selectors.EVENT_READ, (i, False))
                sel.register(proc.sentinel, selectors.EVENT_READ, (i, True))
            live = len(self._procs)
            while live:
                ready = [key.data for key, _ in sel.select()]
                exited = {i for i, sentinel in ready if sentinel}
                for i in sorted({i for i, _ in ready}):
                    # Replies first: a worker that answered and then
                    # exited must have its answers delivered before its
                    # death counts.
                    if self._deliver(self._conns[i], i in exited) \
                            and i not in exited:
                        continue
                    if not self._worker_gone(i):
                        return
                    sel.unregister(self._conns[i])
                    sel.unregister(self._procs[i].sentinel)
                    live -= 1

    def _deliver(self, conn, drain: bool) -> bool:
        """Resolve the reply waiting on ``conn`` — every waiting reply
        with ``drain`` (the selector is level-triggered, so otherwise
        the next one wakes it again).  False once the pipe is closed or
        delivers something undecodable."""
        try:
            while not drain or conn.poll():
                tid, value, exc = conn.recv()
                self._resolve(tid, value, exc)
                if not drain:
                    break
        except Exception:  # EOF, reset or an undecodable reply
            return False
        return True

    def _resolve(self, tid: int, value, exc) -> None:
        with self._lock:
            fut, w, size = self._pending.pop(tid)
            self._load[w] -= 1
            self._sent[w] -= 1
            self._sent_bytes[w] -= size
            ready = self._ready(w)
        self._send(w, ready)
        if not fut.set_running_or_notify_cancel():
            return  # cancelled while in flight: drop the late reply
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(value)

    def _worker_gone(self, i: int) -> bool:
        """Account for worker ``i`` exiting (sentinel or pipe EOF).
        Returns whether the reader should keep watching the others.

        After :meth:`shutdown`, workers exit one by one once their
        queued tasks are answered, so only worker ``i``'s leftovers
        fail.  Any other death breaks the executor: every outstanding
        future fails with :class:`BrokenProcessPool` and the remaining
        workers are terminated.
        """
        with self._lock:
            orderly = self._shutdown and not self._broken
            if not orderly and not self._broken:
                self._broken = f"worker process {i} died"
            dead = [tid for tid, (_, w, _) in self._pending.items()
                    if w == i or not orderly]
            futs = [self._pending.pop(tid)[0] for tid in dead]
            for w, queue in enumerate(self._backlog):
                if w == i or not orderly:
                    queue.clear()  # its queued tasks just failed
            reason = self._broken or "executor shut down"
        for fut in futs:
            if fut.set_running_or_notify_cancel():
                fut.set_exception(BrokenProcessPool(reason))
        if orderly:
            return True
        self._kill()
        return False

    def _kill(self) -> None:
        for proc in self._procs:
            proc.terminate()

    def terminate(self) -> None:
        """Kill every worker now.  Outstanding futures fail with
        :class:`BrokenProcessPool`, as for any worker death, and later
        submits are refused the same way."""
        with self._lock:
            if not self._broken:
                self._broken = "executor terminated"
        self._kill()

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        """Send every worker a stop message (queued behind the tasks
        submitted to it) and, with ``wait``, join it."""
        ready = []
        with self._lock:
            futs = [f for f, _, _ in self._pending.values()] \
                if cancel_futures else []
            if not self._shutdown:  # stop messages go out once
                self._shutdown = True
                for w, queue in enumerate(self._backlog):
                    queue.append((None, b""))
                    ready.append(self._ready(w))
        for fut in futs:
            fut.cancel()
        for w, messages in enumerate(ready):
            self._send(w, messages)
        if wait:
            for proc in self._procs:
                proc.join()
            self._reader.join()
            for conn, lock in zip(self._conns, self._send_locks):
                with lock:
                    conn.close()


def _pipeline_room(conn) -> int:
    """Bytes of tasks that may sit unread in a worker's pipe: a quarter
    of its socket send buffer, which leaves the kernel's per-message
    overhead for two messages well inside the buffer.  0 (no
    pipelining) where the pipe is not a socket."""
    try:
        with socket.fromfd(conn.fileno(), socket.AF_UNIX,
                           socket.SOCK_STREAM) as sock:
            return sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) // 4
    except OSError:
        return 0

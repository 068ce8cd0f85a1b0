"""The benchmark's daemon launcher: ``python -m perfbench.launcher``.

Runs the serving daemon exactly as ``python -m repro.serve --jobs 2
--kind process`` builds it (the CLI's own ``main`` with those
arguments, so every other setting is the CLI default) and keeps a
handle on the daemon it builds.  A control thread reads one command a
line from standard input and answers on standard output:

``trace 0|1`` stop or start span collection (``--trace`` only);
``stats``     print one JSON line: ``stats()``, ``pool_stats()``, peak
              memory and, when tracing, the layer totals;
``quit``      drain the daemon (SIGINT, as an operator would) and exit.

With ``--trace`` the layer entry points are wrapped before the pool
forks its workers, so workers inherit the wrappers; a shared flag turns
them on and off, and workers add their totals to shared memory after
each shard.  The daemon process's spans are written to ``--spans`` on
exit.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
import threading

from perfbench.common import layer_times
from perfbench.tracing import (BUFFER_HOOKS, ENGINE_HOOKS, SERVE_HOOKS,
                               Tracer, percentile)

#: Span names whose totals process-pool workers report back.
WORKER_NAMES = tuple(sorted({h[2] for h in ENGINE_HOOKS + BUFFER_HOOKS}
                            | {"worker.shard"}))

#: The serving geometry: one binary64 pool of two worker processes.
DAEMON_ARGV = ["--jobs", "2", "--kind", "process", "--port", "0"]


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Launcher:
    def __init__(self, trace: bool, spans_path: str):
        from repro.serve import daemon as daemon_mod

        self.daemon = None
        self.spans_path = spans_path
        self.tracer = None
        launcher = self

        class CapturedDaemon(daemon_mod.ReproDaemon):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                launcher.daemon = self

        daemon_mod.ReproDaemon = CapturedDaemon
        self.daemon_main = daemon_mod.main
        if trace:
            self._setup_tracing()

    def _setup_tracing(self) -> None:
        self.flag = multiprocessing.RawValue("b", 0)
        self.shared = multiprocessing.RawArray("d", 3 * len(WORKER_NAMES))
        self.shared_lock = multiprocessing.Lock()
        tracer = self.tracer = Tracer()
        flag = self.flag
        tracer.install(SERVE_HOOKS + ENGINE_HOOKS + BUFFER_HOOKS,
                       gate=lambda: flag.value)
        parent = os.getpid()
        index = {name: i for i, name in enumerate(WORKER_NAMES)}
        shared, lock = self.shared, self.shared_lock

        def flush() -> None:
            if os.getpid() == parent:
                return
            with tracer._lock:
                totals, tracer.totals = tracer.totals, {}
                tracer.spans = []
            with lock:
                for name, (total, own, calls) in totals.items():
                    i = index.get(name)
                    if i is not None:
                        shared[3 * i] += total
                        shared[3 * i + 1] += own
                        shared[3 * i + 2] += calls

        tracer.on_idle = flush
        os.register_at_fork(after_in_child=tracer.reset)

    def worker_totals(self) -> dict:
        with self.shared_lock:
            return {name: [self.shared[3 * i], self.shared[3 * i + 1],
                           self.shared[3 * i + 2]]
                    for i, name in enumerate(WORKER_NAMES)
                    if self.shared[3 * i + 2]}

    def report(self) -> dict:
        d = self.daemon
        workers = multiprocessing.active_children()
        out = {
            "stats": d.stats() if d else {},
            "pool_stats": d.pool_stats() if d else {},
            "peak_rss_mb": _peak_rss_mb(os.getpid())
            + sum(_peak_rss_mb(p.pid) for p in workers),
        }
        if self.tracer is not None:
            with self.tracer._lock:
                totals = {k: list(v) for k, v in self.tracer.totals.items()}
                spans = [list(s) for s in self.tracer.spans]
            calls = sorted(t1 - t0 for _, name, t0, t1, *_ in spans
                           if name == "pool.call")
            out["pool_call_ms"] = [percentile(calls, 50) * 1e3,
                                   percentile(calls, 99) * 1e3]
            out["self_s"] = layer_times(totals, spans)
            out["calls"] = {k: v[2] for k, v in totals.items()}
            out["totals_s"] = {k: v[0] for k, v in totals.items()}
            out["worker_totals"] = self.worker_totals()
        return out

    def _lines(self):
        """Command lines from the dedicated control descriptor.

        Raw ``os.read``: a thread blocked inside ``sys.stdin`` would
        hold its buffer lock across the pool's fork, and every forked
        worker then deadlocks closing its inherited ``sys.stdin``.
        """
        buf = b""
        while True:
            chunk = os.read(self.cmd_fd, 4096)
            if not chunk:
                return
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                yield line.decode()

    def control(self) -> None:
        for line in self._lines():
            cmd = line.split()
            if not cmd:
                continue
            if cmd[0] == "trace" and self.tracer is not None:
                self.flag.value = int(cmd[1])
                reply = {"trace": int(cmd[1])}
            elif cmd[0] == "stats":
                reply = self.report()
            elif cmd[0] == "quit":
                break
            else:
                reply = {"error": f"unknown command {line.strip()!r}"}
            os.write(self.reply_fd, (json.dumps(reply) + "\n").encode())
        # EOF or quit: drain the daemon the way an operator would.
        os.kill(os.getpid(), signal.SIGINT)

    def run(self) -> int:
        # Commands and replies move to private descriptors; the
        # daemon's children inherit /dev/null as their standard input.
        self.cmd_fd = os.dup(0)
        self.reply_fd = os.dup(1)
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.close(null)
        threading.Thread(target=self.control, name="perfbench-control",
                         daemon=True).start()
        rc = self.daemon_main(DAEMON_ARGV)
        if self.tracer is not None:
            self.flag.value = 0
            self.tracer.dump(self.spans_path,
                             {"worker_totals": self.worker_totals()})
        return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=os.devnull)
    args = parser.parse_args(argv)
    return Launcher(args.trace, args.spans).run()


if __name__ == "__main__":
    sys.exit(main())

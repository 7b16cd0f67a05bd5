"""Ray session lifecycle, process reaping and the PSS / CPU sampler.

psutil is not available, so processes are found through ``/proc``:
every Ray process a local session starts (GCS, raylet, agents, workers)
descends from the benchmark process.
"""

import os
import shutil
import signal
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

# Ray puts unix sockets under <temp_dir>/session_<stamp>_<pid>/sockets/;
# Linux caps a socket path at 107 bytes
_MAX_TEMP_DIR = 40
# two CPUs: enough for Ray Data to overlap read,
# extract and write operators
RAY_CPUS = 2
OBJECT_STORE_MB = 256
# a straggler still alive this long after ray.shutdown() is killed
REAP_TIMEOUT_S = 20.0
# the sampler reads every process's CPU ticks twice a second, and its
# smaps_rollup once a second, or less often when one PSS sample costs
# more than this share of the gap in CPU time
CPU_INTERVAL_S = 0.5
PSS_INTERVAL_S = 1.0
PSS_BUDGET = 0.004
TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after its ")"
    return raw[raw.rindex(")") + 2:].split()


def _tree(root: int) -> Dict[int, List[str]]:
    """pid -> ``/proc/<pid>/stat`` fields (after the command name) of
    every live descendant of ``root``."""
    children: Dict[int, List[int]] = {}
    fields: Dict[int, List[str]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        f = _stat(int(entry))
        if f is None:
            continue
        children.setdefault(int(f[1]), []).append(int(entry))
        fields[int(entry)] = f
    out: Dict[int, List[str]] = {}
    todo = list(children.get(root, []))
    while todo:
        pid = todo.pop()
        if pid in out:
            continue
        out[pid] = fields[pid]
        todo.extend(children.get(pid, []))
    return out


def descendants(root: int) -> Dict[int, str]:
    """pid -> start time of every live descendant of ``root``."""
    return {pid: f[19] for pid, f in _tree(root).items()}


def _alive(pid: int, start: str) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[19] == start and fields[0] != "Z"


def wait_gone(procs: Dict[int, str]) -> None:
    """Wait until every process in ``procs`` has ended; kill stragglers."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        left = {p: s for p, s in procs.items() if _alive(p, s)}
        if not left:
            return
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + REAP_TIMEOUT_S
            procs = left
        time.sleep(0.05)


def adopt_orphans() -> None:
    """Make this process the parent of every orphan below it
    (``PR_SET_CHILD_SUBREAPER``), so the Ray processes of a child that
    died are still its descendants."""
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def kill_tree(root: int) -> None:
    """Kill every descendant of ``root`` (this process) and reap the
    ones that are, or become, its children."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while descendants(root) and time.monotonic() < deadline:
        for pid, start in descendants(root).items():
            if _alive(pid, start):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.05)


def pss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Sampler:
    """Peak summed PSS and CPU time of this process and its descendants
    (every Ray process of the session), read from ``/proc`` by a thread.

    CPU time is user + system ticks per process, keyed by pid and start
    time; a process that ends keeps the ticks last read for it, so up to
    ``CPU_INTERVAL_S`` of its CPU time before it ended is missed. Ray
    does not wait for its workers, so their CPU time never reaches a
    parent's children-time fields. The thread's own CPU time (reading
    ``smaps_rollup`` walks each process's page tables) is reported as
    ``cpu_s`` against the sampled window ``wall_s``, and is left out of
    the CPU time ``take`` returns."""

    def __init__(self):
        self.peak_mb = 0.0
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._ticks: Dict[tuple, int] = {}
        self._taken_ticks = 0
        self._taken_cpu_s = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self, pss: bool) -> None:
        me = os.getpid()
        tree = _tree(me)
        tree[me] = _stat(me)
        with self._lock:
            for pid, f in tree.items():
                self._ticks[(pid, f[19])] = int(f[11]) + int(f[12])
        if pss:
            mb = pss_mb(tree)
            with self._lock:
                self.peak_mb = max(self.peak_mb, mb)

    def take(self):
        """Sample now; return the peak PSS (MB) and the CPU seconds of
        every process since the last call (or since the start)."""
        self._sample(pss=True)
        with self._lock:
            peak, self.peak_mb = self.peak_mb, 0.0
            ticks = sum(self._ticks.values())
            own = self.cpu_s - self._taken_cpu_s
            cpu = (ticks - self._taken_ticks) / TICKS_PER_S - own
            self._taken_ticks, self._taken_cpu_s = ticks, self.cpu_s
        return peak, cpu

    def _loop(self) -> None:
        next_pss = 0.0
        while not self._stop.wait(CPU_INTERVAL_S):
            before = time.thread_time()
            pss = time.monotonic() >= next_pss
            self._sample(pss)
            took = time.thread_time() - before
            if pss:
                next_pss = time.monotonic() + max(PSS_INTERVAL_S,
                                                   took / PSS_BUDGET)
            with self._lock:
                self.cpu_s += took

    def __enter__(self):
        self._sample(pss=False)
        self._taken_ticks = sum(self._ticks.values())
        self._t0 = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.wall_s = time.perf_counter() - self._t0


class RaySession:
    """A local Ray session the benchmark owns: started (and timed) on
    demand, stopped with every process it spawned reaped."""

    def __init__(self, work: Path):
        temp = work / "ray"
        if len(str(temp)) > _MAX_TEMP_DIR:
            # the checkout path is too long for Ray's socket paths
            temp = Path(tempfile.mkdtemp(prefix="perfbench-ray-"))
        temp.mkdir(parents=True, exist_ok=True)
        self.temp_dir = temp
        self.running = False

    def start(self) -> float:
        """(Re)start the session; return seconds until a task ran."""
        import ray

        if self.running:
            self.stop()
        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=RAY_CPUS,
            object_store_memory=OBJECT_STORE_MB * 1024 * 1024,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=str(self.temp_dir),
        )
        ray.get(ray.remote(lambda: 0).remote())
        took = time.perf_counter() - t0
        self.running = True
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        return took

    def stop(self) -> None:
        import ray

        procs = descendants(os.getpid())
        ray.shutdown()
        wait_gone(procs)
        self.running = False

    def close(self) -> None:
        """Stop the session and delete its logs and spill files."""
        if self.running:
            self.stop()
        shutil.rmtree(self.temp_dir, ignore_errors=True)


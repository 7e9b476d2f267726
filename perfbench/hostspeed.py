"""Host-speed probe: how fast the host runs fixed work right now.

On a shared host the speed a process gets drifts by up to 2x over seconds
to minutes, as neighbours load the machine, and the program's wall and CPU
times drift with it. The probe times three fixed pieces of work that share
nothing with the program's code, each like a part of what the CLI does:

- ``alu``: a pure-Python arithmetic loop (interpreter dispatch);
- ``mem``: building and reading a 200k-entry dict (allocation and cache);
- ``child``: starting ``python -c "import numpy, scipy.special"`` (process
  start and imports, as every CLI command pays).

``factor()`` gives two factors, one from wall time and one from CPU time:
each is the geometric mean of a piece's time over its reference time below,
so 1.0 means the reference speed and 1.3 a host 30% slower. A wall time
measured between two probes, divided by the mean of their wall factors,
reads as seconds at the reference speed; a CPU time is divided by the CPU
factors. The two differ when the host makes processes wait rather than run
slower, which stretches wall time but not CPU time. The probe runs only
before and after a timed command, never during one.
"""

from __future__ import annotations

import math
import random
import resource
import subprocess
import sys
from time import perf_counter, process_time

# (wall, CPU) seconds of each piece on the 2-core host the benchmark was
# tuned on (x86-64 KVM guest, Python 3.11). They only set the scale of the
# normalised times.
REFERENCE_S = {"alu": (0.11, 0.11), "mem": (0.06, 0.06), "child": (0.40, 0.37)}

_KEYS = [random.Random(0).randrange(1 << 30) for _ in range(200_000)]


def _alu() -> None:
    total = 0
    for i in range(1_500_000):
        total += i * i


def _mem() -> None:
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    sum(counts[key] for key in _KEYS)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class HostProbe:
    """Times the probe work; keeps every (wall, CPU) factor it measured."""

    def __init__(self, env: dict, cwd: str) -> None:
        self.env, self.cwd = env, cwd
        self.factors: list[tuple[float, float]] = []

    def _child(self) -> None:
        subprocess.run(
            [sys.executable, "-c", "import numpy, scipy.special"],
            env=self.env, cwd=self.cwd, check=True, timeout=60,
        )

    def factor(self) -> tuple[float, float]:
        wall_logs, cpu_logs = [], []
        for name, work in (("alu", _alu), ("mem", _mem), ("child", self._child)):
            # no other child ends during the probe, so the children's CPU
            # time grows by the probe child's alone
            wall, cpu = perf_counter(), process_time() + _children_cpu()
            work()
            wall, cpu = perf_counter() - wall, process_time() + _children_cpu() - cpu
            wall_ref, cpu_ref = REFERENCE_S[name]
            wall_logs.append(math.log(wall / wall_ref))
            cpu_logs.append(math.log(cpu / cpu_ref))
        self.factors.append(
            (math.exp(sum(wall_logs) / len(wall_logs)), math.exp(sum(cpu_logs) / len(cpu_logs)))
        )
        return self.factors[-1]

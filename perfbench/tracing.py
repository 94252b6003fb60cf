"""Outside-in instrumentation: wrappers around the public calls of ``repro``.

Nothing here edits the program.  A :class:`Probe` swaps a public function
or method for a thin wrapper (and puts the original back on ``restore``):

* ``time_units`` records the latency of every outermost call of a unit of
  work (a sweep point, a kernel call) — used by untraced and traced runs;
* ``mark_first`` ends set-up when a call (the first pool submission) returns;
* ``before`` / ``on_return`` hand a call's arguments / result to a hook;
* ``span`` (traced runs only) records ``[name, start, end, parent]`` in
  memory for every call, from which :func:`layer_times` derives self times;
* ``probe_speed`` takes :class:`SpeedLog` probes between calls.

Only the process that built the probe records units and spans: forked
pool workers inherit the wrappers and only take speed probes.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Optional

__all__ = ["Probe", "SpeedLog", "layer_times", "spin_seconds"]

#: at most one speed probe per process per this many seconds (~1 % cost)
SPEED_INTERVAL_S = 0.2
_SPIN_TABLE: list[float] = []
_SPIN_ORDER: list[int] = []


def spin_seconds() -> float:
    """Seconds one fixed probe takes right now on this CPU (~3 ms).

    Integer arithmetic plus dictionary updates read from random places in
    a ~3 MB list, so that it slows down like the program does when a
    neighbour contends for the core or its caches.
    """
    if not _SPIN_TABLE:
        import random

        rng = random.Random(2009)
        _SPIN_TABLE.extend(rng.random() for _ in range(100_000))
        _SPIN_ORDER.extend(rng.randrange(len(_SPIN_TABLE)) for _ in range(3_000))
    start = time.perf_counter()
    total = 0
    for k in range(15_000):
        total += k * k
    buckets: dict[int, float] = {}
    for i in _SPIN_ORDER:
        buckets[i & 1023] = buckets.get(i & 1023, 0.0) + _SPIN_TABLE[i]
    return time.perf_counter() - start


class SpeedLog:
    """Speed probes taken between units of work, in every process.

    Shared machines change a vCPU's speed by 1.6x or more for seconds to
    minutes at a time, and a probe in another process does not see it.
    So each process that does the work (the answer process and its pool workers,
    which inherit the wrappers by fork) times :func:`spin_seconds` at most
    every :data:`SPEED_INTERVAL_S` and appends it to
    ``<directory>/speed-<pid>.txt``.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._last: dict[int, float] = {}

    def probe(self) -> None:
        """Time one probe, unless this process took one very recently."""
        pid = os.getpid()
        now = time.perf_counter()
        if now - self._last.get(pid, -SPEED_INTERVAL_S) < SPEED_INTERVAL_S:
            return
        spin = spin_seconds()
        self._last[pid] = time.perf_counter()
        with open(self.directory / f"speed-{pid}.txt", "a", encoding="utf-8") as fh:
            fh.write(f"{spin!r}\n")

    def samples(self) -> list[float]:
        """Every probe taken so far, by any process."""
        return [
            float(line)
            for path in sorted(self.directory.glob("speed-*.txt"))
            for line in path.read_text().split()
        ]


class Probe:
    """Unit timers, the set-up mark and (optionally) a span recorder."""

    def __init__(self, trace: bool, speed: SpeedLog) -> None:
        self.trace = trace
        self.speed = speed
        self.setup_spins: list[float] = []
        self.pid = os.getpid()
        self.units: list[float] = []
        self.first_unit: Optional[float] = None
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._unit_depth = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> Callable:
        if isinstance(owner, ModuleType):
            original = getattr(owner, attr)
        else:
            original = owner.__dict__[attr]  # not an inherited one
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        if isinstance(owner, ModuleType):
            # ``from module import f`` bindings elsewhere in the package
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))
        return original

    def restore(self) -> None:
        """Put every original function back (last patch first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _mine(self) -> bool:
        return os.getpid() == self.pid

    # ------------------------------------------------------------------
    # untraced instrumentation
    # ------------------------------------------------------------------
    def _unit_started(self) -> None:
        """End set-up at the first unit, then take the set-up's last probes."""
        if self.first_unit is None:
            self.first_unit = time.perf_counter()
            self.setup_spins += [spin_seconds(), spin_seconds()]

    def time_units(self, owner: Any, attr: str) -> None:
        """Time every outermost call of ``owner.attr`` as one unit."""
        original = None

        def wrapper(*args, **kwargs):
            if not self._mine() or self._unit_depth:
                return original(*args, **kwargs)
            self.speed.probe()
            self._unit_started()
            start = time.perf_counter()
            self._unit_depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                self._unit_depth -= 1
                self.units.append(time.perf_counter() - start)

        original = self._replace(owner, attr, wrapper)

    def before(self, owner: Any, attr: str, hook: Callable[..., None]) -> None:
        """Call ``hook`` with the arguments of every call of ``owner.attr``
        in this process, before the call."""
        original = None

        def wrapper(*args, **kwargs):
            if self._mine():
                hook(*args, **kwargs)
            return original(*args, **kwargs)

        original = self._replace(owner, attr, wrapper)

    def on_return(
        self,
        owner: Any,
        attr: str,
        hook: Callable[[Any], None],
        every_process: bool = False,
    ) -> None:
        """Hand every result of ``owner.attr`` to ``hook``.

        Only results in this process, unless ``every_process``.
        """
        original = None

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if every_process or self._mine():
                hook(result)
            return result

        original = self._replace(owner, attr, wrapper)

    def probe_speed(self, owner: Any, attr: str) -> None:
        """Take a speed probe (rate-limited) before calls of ``owner.attr``,
        in whichever process makes them."""
        original = None

        def wrapper(*args, **kwargs):
            self.speed.probe()
            return original(*args, **kwargs)

        original = self._replace(owner, attr, wrapper)

    def mark_first(self, owner: Any, attr: str) -> None:
        """End set-up when the first call of ``owner.attr`` returns."""
        original = None

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if self._mine():
                self._unit_started()
            return result

        original = self._replace(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # spans (traced runs)
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        outermost: bool = False,
        when: Optional[Callable[..., bool]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``outermost`` skips calls made while a span of the same name is
        open (engines delegate to each other); ``when`` filters calls by
        their arguments.
        """
        original = None

        def wrapper(*args, **kwargs):
            if (
                not self._mine()
                or (outermost and any(self.spans[i][0] == name for i in self._stack))
                or (when is not None and not when(*args, **kwargs))
            ):
                return original(*args, **kwargs)
            index = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        original = self._replace(owner, attr, wrapper)


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children (children nest strictly inside their parent).
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for index, (name, start, end, _parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[index]
    return dict(out)

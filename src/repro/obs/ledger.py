"""Append-only JSONL run ledger with live status and chunk forensics.

A :class:`RunLedger` is the standard sink of a
:class:`~repro.obs.events.EventBus`: each envelope becomes one JSON line
appended to a ledger file, written whole and flushed — a concurrent
reader (``repro-cli watch``, :func:`follow_events`) never observes a
torn line.  Next to the ledger, an atomically-rewritten
``<ledger>.status.json`` sidecar holds the digest a polling HTTP
front end needs: state, units done/total, rate, ETA, retry/failure and
cache counters, round progression, and the stop reason.

Failure forensics: :func:`forensic_bundle` packs the exact
``(task, plan, spec)`` triple of a failing chunk — seed entropy path,
chunk identity, engine/strategy, point params, pickled task — into the
``ChunkFailed`` event, and :func:`replay_chunk` re-executes that chunk
serially through the same ``_execute_chunk`` code path for debugging
(``repro-cli replay-chunk <ledger> <chunk-id>``).

The ledger is I/O only.  It never draws randomness, never inspects
markings, and the executors never change behaviour based on its
presence — the byte-identical-estimates invariant is enforced in
``tests/obs/test_invariance.py``.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.obs.events import SCHEMA_ID, validate_event

__all__ = [
    "RunLedger",
    "LedgerStatus",
    "read_events",
    "follow_events",
    "iter_jsonl",
    "forensic_bundle",
    "bundle_of",
    "chunk_failures",
    "replay_chunk",
    "write_status",
]


# ----------------------------------------------------------------------
# status accumulation (shared by the sidecar writer and `watch`)
# ----------------------------------------------------------------------
@dataclass
class LedgerStatus:
    """Digest of a ledger's event stream, updated one envelope at a time.

    This is the same accounting ``TelemetrySnapshot`` performs after a
    run, replayed incrementally so it is available *while* the run is
    going: feed envelopes through :meth:`update` (in seq order) and read
    the fields or :meth:`to_dict` at any time.
    """

    run_id: str = ""
    state: str = "pending"  # pending | running | finished | failed
    kind: str = ""
    unit: str = "replications"
    engine: str = ""
    workers: int = 1
    label: str = ""
    units_done: int = 0
    units_total: Optional[int] = None
    chunks_scheduled: int = 0
    chunks_completed: int = 0
    retries: int = 0
    failures: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rounds: int = 0
    round_spent: int = 0
    widest_relative_ci: Optional[float] = None
    converged_points: Optional[int] = None
    stop_reason: Optional[str] = None
    outcome: Optional[str] = None
    error: Optional[str] = None
    started_ts: Optional[float] = None
    last_ts: Optional[float] = None
    events_seen: int = 0
    failed_chunk_ids: list = field(default_factory=list)

    def update(self, envelope: dict) -> None:
        """Fold one ``repro-events/1`` envelope into the digest."""
        self.events_seen += 1
        ts = envelope.get("ts")
        if isinstance(ts, (int, float)):
            self.last_ts = float(ts)
            if self.started_ts is None:
                self.started_ts = float(ts)
        if not self.run_id:
            self.run_id = str(envelope.get("run_id", ""))
        name = envelope.get("event")
        data = envelope.get("data") or {}
        if name == "RunStarted":
            self.state = "running"
            self.kind = data.get("kind", self.kind)
            self.unit = data.get("unit", self.unit)
            self.engine = data.get("engine", self.engine)
            self.workers = int(data.get("workers", self.workers))
            self.label = data.get("label", self.label) or self.label
            total = data.get("total", data.get("max_total"))
            if total is not None:
                self.units_total = int(total)
        elif name == "ChunkScheduled":
            self.chunks_scheduled += 1
        elif name == "ChunkCompleted":
            self.chunks_completed += 1
            self.units_done += int(data.get("n", 0))
        elif name == "ChunkRetried":
            self.retries += 1
        elif name == "ChunkFailed":
            self.failures += 1
            chunk_id = data.get("chunk_id")
            if chunk_id:
                self.failed_chunk_ids.append(chunk_id)
        elif name == "CacheHit":
            self.cache_hits += 1
        elif name == "CacheMiss":
            self.cache_misses += 1
        elif name == "RoundAllocated":
            # ``round`` is a 0-based index; ``rounds`` counts them
            self.rounds = max(self.rounds, int(data.get("round", 0)) + 1)
            self.round_spent = int(data.get("spent", self.round_spent))
            if data.get("widest_relative_ci") is not None:
                self.widest_relative_ci = float(data["widest_relative_ci"])
            if data.get("converged_points") is not None:
                self.converged_points = int(data["converged_points"])
        elif name == "BudgetStopped":
            self.stop_reason = data.get("reason")
        elif name == "RunFinished":
            self.outcome = data.get("outcome")
            self.state = "failed" if self.outcome == "failed" else "finished"
            self.error = data.get("error")
            units = int(data.get("units", 0))
            if units:
                self.units_done = units

    # -- derived quantities -------------------------------------------
    @property
    def elapsed_seconds(self) -> float:
        if self.started_ts is None or self.last_ts is None:
            return 0.0
        return max(0.0, self.last_ts - self.started_ts)

    @property
    def units_per_second(self) -> float:
        elapsed = self.elapsed_seconds
        return self.units_done / elapsed if elapsed > 0 else 0.0

    @property
    def eta_seconds(self) -> Optional[float]:
        """Naive remaining-time estimate from the observed rate."""
        if (
            self.units_total is None
            or self.state != "running"
            or self.units_done <= 0
        ):
            return None
        rate = self.units_per_second
        if rate <= 0:
            return None
        remaining = max(0, self.units_total - self.units_done)
        return remaining / rate

    @property
    def fraction_done(self) -> Optional[float]:
        if not self.units_total:
            return None
        return min(1.0, self.units_done / self.units_total)

    def to_dict(self) -> dict:
        """JSON form written to the ``status.json`` sidecar."""
        record = {
            "schema": "repro-status/1",
            "run_id": self.run_id,
            "state": self.state,
            "kind": self.kind,
            "unit": self.unit,
            "engine": self.engine,
            "workers": self.workers,
            "units_done": self.units_done,
            "units_total": self.units_total,
            "fraction_done": self.fraction_done,
            "units_per_second": round(self.units_per_second, 6),
            "eta_seconds": self.eta_seconds,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "chunks_scheduled": self.chunks_scheduled,
            "chunks_completed": self.chunks_completed,
            "retries": self.retries,
            "failures": self.failures,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "rounds": self.rounds,
            "events_seen": self.events_seen,
        }
        if self.label:
            record["label"] = self.label
        if self.round_spent:
            record["round_spent"] = self.round_spent
        if self.widest_relative_ci is not None:
            record["widest_relative_ci"] = self.widest_relative_ci
        if self.converged_points is not None:
            record["converged_points"] = self.converged_points
        if self.stop_reason is not None:
            record["stop_reason"] = self.stop_reason
        if self.outcome is not None:
            record["outcome"] = self.outcome
        if self.error is not None:
            record["error"] = self.error
        if self.failed_chunk_ids:
            record["failed_chunk_ids"] = list(self.failed_chunk_ids)
        return record

    def format(self) -> str:
        """One human line, the unit `watch` renders per refresh."""
        parts = [f"[{self.state}]"]
        if self.units_total:
            pct = 100.0 * (self.fraction_done or 0.0)
            parts.append(
                f"{self.units_done}/{self.units_total} {self.unit}"
                f" ({pct:.1f}%)"
            )
        else:
            parts.append(f"{self.units_done} {self.unit}")
        rate = self.units_per_second
        if rate > 0:
            parts.append(f"{rate:.1f}/s")
        eta = self.eta_seconds
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        if self.rounds:
            parts.append(f"round {self.rounds}")
        if self.widest_relative_ci is not None:
            parts.append(f"widest-ci {self.widest_relative_ci:.3g}")
        if self.retries:
            parts.append(f"retries {self.retries}")
        if self.failures:
            parts.append(f"failures {self.failures}")
        if self.stop_reason:
            parts.append(f"stop {self.stop_reason}")
        if self.outcome:
            parts.append(f"outcome {self.outcome}")
        return "  ".join(parts)


def write_status(path: Path, status: LedgerStatus) -> None:
    """Atomically rewrite the status sidecar (temp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(
        json.dumps(status.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# the ledger sink
# ----------------------------------------------------------------------
class RunLedger:
    """Append-only JSONL sink for ``repro-events/1`` envelopes.

    Each envelope is serialised to one line and written with a single
    ``write`` call followed by a flush, so a tailing reader sees only
    whole lines.  The companion status sidecar (default
    ``<path>.status.json``) is rewritten atomically — throttled to at
    most one rewrite per ``status_interval`` seconds, but always on
    terminal events so the final state is never stale.

    Use as an ``EventBus`` sink::

        ledger = RunLedger(path)
        bus = EventBus(run_id, sinks=[ledger])
        ...
        bus.close()          # closes the ledger, fsyncs, final status
    """

    def __init__(
        self,
        path: Path,
        status_path: Optional[Path] = None,
        *,
        status_interval: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.status_path = (
            Path(status_path)
            if status_path is not None
            else self.path.with_name(self.path.name + ".status.json")
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._status = LedgerStatus()
        self._status_interval = float(status_interval)
        self._clock = clock
        self._last_status_write: Optional[float] = None
        self._closed = False

    @property
    def status(self) -> LedgerStatus:
        return self._status

    def __call__(self, envelope: dict) -> None:
        """Append one envelope (the ``EventBus`` sink protocol)."""
        if self._closed:
            raise ValueError(f"ledger {self.path} is closed")
        line = json.dumps(envelope, sort_keys=True, default=_json_default)
        self._fh.write(line + "\n")
        self._fh.flush()
        self._status.update(envelope)
        terminal = envelope.get("event") in ("RunFinished", "BudgetStopped")
        now = self._clock()
        due = (
            self._last_status_write is None
            or now - self._last_status_write >= self._status_interval
        )
        if terminal or due:
            write_status(self.status_path, self._status)
            self._last_status_write = now

    def close(self) -> None:
        """Flush, fsync and close; write the final status snapshot."""
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        write_status(self.status_path, self._status)

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({str(self.path)!r})"


def _json_default(value: Any) -> Any:
    """Fallback serialisation for numpy scalars and other oddballs."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def iter_jsonl(path: Path) -> Iterator[dict]:
    """Parsed lines of a JSONL file (partial trailing line skipped)."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                # a concurrently-written final line may be incomplete
                continue


def read_events(path: Path, run_id: Optional[str] = None) -> list[dict]:
    """All envelopes of a ledger file, optionally filtered by run id."""
    events = list(iter_jsonl(Path(path)))
    if run_id is not None:
        events = [e for e in events if e.get("run_id") == run_id]
    return events


def follow_events(
    path: Path,
    *,
    poll_seconds: float = 0.2,
    timeout_seconds: Optional[float] = None,
    stop_on_finish: bool = True,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[dict]:
    """Tail a ledger: yield existing envelopes, then poll for new ones.

    Stops when a ``RunFinished`` envelope is seen (if
    ``stop_on_finish``), or after ``timeout_seconds`` without the file
    producing a complete new line.  Tolerates the file not existing yet.
    """
    path = Path(path)
    offset = 0
    buffer = ""
    deadline = None if timeout_seconds is None else clock() + timeout_seconds
    while True:
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(offset)
                chunk = fh.read()
                offset = fh.tell()
            if chunk:
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        envelope = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    yield envelope
                    if (
                        stop_on_finish
                        and envelope.get("event") == "RunFinished"
                    ):
                        return
                    if deadline is not None:
                        deadline = clock() + timeout_seconds
        if deadline is not None and clock() >= deadline:
            return
        sleep(poll_seconds)


# ----------------------------------------------------------------------
# forensics
# ----------------------------------------------------------------------
#: bundle schema version (inside ChunkFailed.data.bundle)
BUNDLE_SCHEMA = "repro-chunk-bundle/1"


def _describe_task(task: Any) -> dict:
    """Readable identity of a simulation task for the bundle metadata."""
    info: dict = {"type": type(task).__name__}
    for attr in ("strategy", "n", "engine", "method", "batch_size", "level"):
        value = getattr(task, attr, None)
        if value is not None:
            info[attr] = getattr(value, "name", value)
    params = getattr(task, "params", None)
    if params is not None:
        to_dict = getattr(params, "to_dict", None)
        if callable(to_dict):
            info["params"] = to_dict()
        else:
            info["params"] = repr(params)
    times = getattr(task, "times", None)
    if times is not None:
        info["times"] = list(times)
    return info


def forensic_bundle(task: Any, plan: Any, spec: Any) -> dict:
    """Pack a failing chunk's exact inputs into a JSON-safe repro bundle.

    The pickle payload carries the real ``(task, plan, spec)`` triple —
    tasks are frozen picklable dataclasses by design — while the
    metadata fields stay human-readable so a ledger is inspectable
    without unpickling anything.  Returns a dict suitable for
    ``ChunkFailed(bundle=...)``; if the triple resists pickling the
    bundle degrades to metadata-only with a ``pickle_error`` note.
    """
    bundle: dict = {
        "schema": BUNDLE_SCHEMA,
        "task": _describe_task(task),
        "seed_entropy": getattr(plan, "entropy", None),
        "chunk_size": getattr(plan, "chunk_size", None),
        "chunk_index": getattr(spec, "index", None),
        "start": getattr(spec, "start", None),
        "count": getattr(spec, "count", None),
    }
    try:
        payload = pickle.dumps((task, plan, spec), protocol=4)
    except Exception as exc:  # pragma: no cover - defensive
        bundle["pickle_error"] = f"{type(exc).__name__}: {exc}"
    else:
        bundle["pickle"] = base64.b64encode(payload).decode("ascii")
    return bundle


def chunk_failures(events: Iterable[dict]) -> dict[str, dict]:
    """``chunk_id -> ChunkFailed.data`` map (last failure wins)."""
    failures: dict[str, dict] = {}
    for envelope in events:
        if envelope.get("event") != "ChunkFailed":
            continue
        data = envelope.get("data") or {}
        chunk_id = data.get("chunk_id")
        if chunk_id:
            failures[chunk_id] = data
    return failures


def bundle_of(events: Iterable[dict], chunk_id: str) -> dict:
    """The forensic bundle of ``chunk_id``, or raise ``KeyError``."""
    failures = chunk_failures(events)
    if chunk_id not in failures:
        known = ", ".join(sorted(failures)) or "none"
        raise KeyError(
            f"no ChunkFailed event for {chunk_id!r} "
            f"(failed chunks: {known})"
        )
    bundle = failures[chunk_id].get("bundle")
    if not bundle:
        raise KeyError(f"ChunkFailed event for {chunk_id!r} has no bundle")
    return bundle


def replay_chunk(bundle: dict) -> Any:
    """Re-execute a bundled chunk serially, exactly as a worker would.

    Unpickles the ``(task, plan, spec)`` triple and runs it through the
    same ``_execute_chunk`` code path the pool workers use — same seed
    derivation, same engine, same merge summary.  Returns the
    :class:`~repro.runtime.merge.ChunkSummary` on success; re-raises the
    original failure class on reproduction.
    """
    if bundle.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(
            f"not a {BUNDLE_SCHEMA} bundle: {bundle.get('schema')!r}"
        )
    payload = bundle.get("pickle")
    if not payload:
        raise ValueError(
            "bundle has no pickled task "
            f"(pickle_error: {bundle.get('pickle_error')!r})"
        )
    task, plan, spec = pickle.loads(base64.b64decode(payload))
    from repro.runtime.pool import _execute_chunk

    return _execute_chunk(task, plan, spec)

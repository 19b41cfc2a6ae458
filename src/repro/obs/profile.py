"""Span-attributed sampling profiler (stdlib-only, off by default).

The PR 6/7 telemetry spine says *which* spans are slow; this module
says *why*: a background daemon thread samples every Python frame
stack in the process via ``sys._current_frames()`` and tags each
sample with the sampled thread's currently-open span path (from
:meth:`repro.obs.core._Tracer.open_span_paths`).  Samples fold into
collapsed-stack form in memory and land as one ``profile-<pid>.jsonl``
shard per process, in a ``<run_id>-profile/`` directory beside the
trace sink — pool workers inherit activation through the same
environment propagation as the tracer (the :data:`ENV_PROFILE` flag is
ordinary environment, and each worker's lazily-built tracer starts its
own sampler), so a profiled cohort run yields one mergeable fleet-wide
profile.

Sampling policy: threads holding open spans are always sampled; the
process's main thread is sampled even between spans (tagged with the
empty span path); other span-less threads — pool queue feeders,
condition waiters — are *counted* (the shard header's ``skipped``) but
not stacked, so wall-clock samples of idle machinery never drown the
attributed work.

Activation: ``repro --profile ...`` or ``REPRO_PROFILE=1`` (the
sampling interval is ``REPRO_PROFILE_INTERVAL`` seconds, default
``0.005``).  The off path costs nothing on hot seams: the environment
is consulted once per tracer construction, never per probe.

Reading back: ``repro profile <run-id|latest>`` merges the run's
shards and prints collapsed-stack text (one ``frame;frame;... count``
line per unique stack — pipe it into any flamegraph tool), and
``--flamegraph out.json`` writes a speedscope-compatible document
(https://www.speedscope.app — "Browse" the file, no upload needed).
``repro report --profile`` renders the top-N hot functions folded per
span path instead.

Shard format (one JSON object per line)::

    {"profile": "v1", "trace": ..., "pid": ..., "interval_s": ...,
     "samples": N, "skipped": M, "t0": ..., "t": ...}
    {"span": ["session.run", "campaign"], "stack": ["mod.fn", ...],
     "n": 12}

Shards are rewritten atomically (temp file + ``os.replace``) about
once a second, so a worker killed by ``Pool.terminate()`` loses at
most the last second of samples — the same discipline as the tracer's
flush-on-empty-stack.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any

from ..errors import ObsError

__all__ = [
    "ENV_PROFILE",
    "ENV_PROFILE_INTERVAL",
    "DEFAULT_INTERVAL_S",
    "requested",
    "ensure_started",
    "stop_sampler",
    "sampler_active",
    "profile_dir_for",
    "shard_paths",
    "load_shard",
    "load_profile",
    "collapsed_lines",
    "hot_by_span",
    "render_hot_section",
    "speedscope_document",
]

#: Boolean switch activating the sampler in every traced process.
ENV_PROFILE = "REPRO_PROFILE"
#: Sampling interval override, in (fractional) seconds.
ENV_PROFILE_INTERVAL = "REPRO_PROFILE_INTERVAL"

#: Default seconds between stack samples (200 Hz).
DEFAULT_INTERVAL_S = 0.005

#: Shards are rewritten at most this often (and at sampler stop).
_SHARD_FLUSH_S = 1.0

#: Stack frames kept per sample, innermost last.
_MAX_DEPTH = 80

#: The shard header's format tag.
_SHARD_VERSION = "v1"


def requested() -> bool:
    """True when the environment asks for sampling profiles."""
    return os.environ.get(ENV_PROFILE, "") in ("1", "true")


def sample_interval_s() -> float:
    """The configured sampling interval (invalid values fall back)."""
    raw = os.environ.get(ENV_PROFILE_INTERVAL)
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return DEFAULT_INTERVAL_S


def profile_dir_for(trace_path: Path | str) -> Path:
    """Where a trace sink's profile shards live (``<stem>-profile/``)."""
    sink = Path(trace_path)
    return sink.parent / f"{sink.stem}-profile"


def _frame_stack(frame: Any) -> tuple[str, ...]:
    """One sampled thread's stack as ``module.qualname`` strings.

    Outermost (root) first — collapsed-stack order.  Depth is bounded
    by :data:`_MAX_DEPTH`; deeper stacks lose their outermost frames,
    which keeps the hot leaves intact.
    """
    names: list[str] = []
    cursor = frame
    while cursor is not None and len(names) < _MAX_DEPTH:
        code = cursor.f_code
        module = cursor.f_globals.get("__name__", "?")
        qualname = getattr(code, "co_qualname", code.co_name)
        names.append(f"{module}.{qualname}")
        cursor = cursor.f_back
    names.reverse()
    return tuple(names)


class Sampler:
    """The per-process sampling thread and its folded sample store."""

    def __init__(
        self,
        tracer: Any,
        out_path: Path,
        interval_s: float | None = None,
    ) -> None:
        self.tracer = tracer
        self.out_path = Path(out_path)
        self.interval_s = (
            sample_interval_s() if interval_s is None else interval_s
        )
        self.pid = os.getpid()
        self.samples = 0
        self.skipped = 0
        self.t0 = time.time()
        self._folds: dict[tuple, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._last_write = 0.0
        self._thread = threading.Thread(
            target=self._run, name="repro-profile-sampler", daemon=True
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and write the final shard."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)
        self.write_shard()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    # -- the sampling loop -------------------------------------------------

    def _run(self) -> None:
        main_id = threading.main_thread().ident
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample_once(main_id, own_id)
            now = time.monotonic()
            if now - self._last_write >= _SHARD_FLUSH_S:
                self.write_shard()

    def _sample_once(self, main_id: int | None, own_id: int) -> None:
        spans = self.tracer.open_span_paths()
        frames = sys._current_frames()
        # The sampler's own frame holds this dict in its locals; left in,
        # that reference cycle would pin every sampled frame (and the
        # arrays its locals hold) until the cyclic GC ran.
        del frames[own_id]
        with self._lock:
            for thread_id, frame in frames.items():
                span_path = spans.get(thread_id)
                if span_path is None:
                    if thread_id != main_id:
                        # Span-less helper threads (pool feeders,
                        # waiters) are idle machinery: count, don't
                        # stack.
                        self.skipped += 1
                        continue
                    span_path = ()
                key = (span_path, _frame_stack(frame))
                self._folds[key] = self._folds.get(key, 0) + 1
                self.samples += 1

    # -- shard I/O ---------------------------------------------------------

    def write_shard(self) -> None:
        """Atomically rewrite this process's shard with current folds."""
        self._last_write = time.monotonic()
        with self._lock:
            header = {
                "profile": _SHARD_VERSION,
                "trace": self.tracer.run_id,
                "pid": self.pid,
                "interval_s": self.interval_s,
                "samples": self.samples,
                "skipped": self.skipped,
                "t0": self.t0,
                "t": time.time(),
            }
            entries = [
                {"span": list(span), "stack": list(stack), "n": count}
                for (span, stack), count in sorted(self._folds.items())
            ]
        if not self.samples and not self.skipped:
            return
        self.out_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.out_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        os.replace(tmp, self.out_path)


# -- module state ----------------------------------------------------------

_SAMPLER: Sampler | None = None
_SAMPLER_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def ensure_started(tracer: Any, fresh: bool = False) -> Sampler:
    """Start (or return) this process's sampler for ``tracer``.

    Called from the tracer-construction seams in
    :mod:`repro.obs.core` — owner ``enable()`` (``fresh=True`` clears
    stale shards of a re-run), fork rebind, and the spawn path's lazy
    build.  A sampler inherited across ``fork`` is dead (threads do not
    survive the fork) and is replaced.
    """
    global _SAMPLER, _ATEXIT_REGISTERED
    with _SAMPLER_LOCK:
        sampler = _SAMPLER
        if (
            sampler is not None
            and sampler.pid == os.getpid()
            and sampler.alive
        ):
            return sampler
        directory = profile_dir_for(tracer.path)
        if fresh and directory.is_dir():
            for stale in directory.glob("profile-*.jsonl"):
                stale.unlink(missing_ok=True)
        sampler = Sampler(
            tracer, directory / f"profile-{os.getpid()}.jsonl"
        )
        _SAMPLER = sampler
        if not _ATEXIT_REGISTERED:
            # Fast pool workers may exit before the periodic rewrite
            # ever fires; a clean interpreter exit writes the final
            # shard (Pool.terminate() still loses at most ~1 s).
            atexit.register(stop_sampler)
            _ATEXIT_REGISTERED = True
        sampler.start()
        return sampler


def stop_sampler() -> None:
    """Stop this process's sampler (final shard write); no-op when idle."""
    global _SAMPLER
    with _SAMPLER_LOCK:
        sampler = _SAMPLER
        _SAMPLER = None
    if sampler is not None and sampler.pid == os.getpid():
        sampler.stop()


def sampler_active() -> bool:
    """True while this process has a live sampling thread."""
    sampler = _SAMPLER
    return (
        sampler is not None
        and sampler.pid == os.getpid()
        and sampler.alive
    )


# -- reading shards back ---------------------------------------------------


def shard_paths(trace_path: Path | str) -> list[Path]:
    """The run's shard files, sorted for deterministic merges."""
    return sorted(profile_dir_for(trace_path).glob("profile-*.jsonl"))


def load_shard(path: Path | str) -> dict[str, Any]:
    """Parse one shard into ``{"header": ..., "folds": {key: n}}``.

    A malformed shard is a hard :class:`~repro.errors.ObsError` — the
    same contract as the trace reader: a profile that lies is worse
    than no profile.
    """
    source = Path(path)
    try:
        lines = source.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ObsError(f"cannot read profile shard {source}: {exc}") from exc
    if not lines:
        raise ObsError(f"{source}: empty profile shard")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ObsError(f"{source}:1: not valid JSON: {exc}") from exc
    if (
        not isinstance(header, dict)
        or header.get("profile") != _SHARD_VERSION
        or not isinstance(header.get("pid"), int)
    ):
        raise ObsError(
            f"{source}: not a {_SHARD_VERSION} profile shard header"
        )
    folds: dict[tuple, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsError(
                f"{source}:{lineno}: not valid JSON: {exc}"
            ) from exc
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("span"), list)
            or not isinstance(entry.get("stack"), list)
            or not isinstance(entry.get("n"), int)
            or entry["n"] < 1
        ):
            raise ObsError(
                f"{source}:{lineno}: malformed profile entry "
                "(need span list, stack list, positive n)"
            )
        key = (
            tuple(str(name) for name in entry["span"]),
            tuple(str(name) for name in entry["stack"]),
        )
        folds[key] = folds.get(key, 0) + entry["n"]
    return {"header": header, "folds": folds}


def load_profile(trace_path: Path | str) -> dict[str, Any]:
    """Merge all of a run's shards into one fleet-wide profile.

    Returns ``{"trace", "interval_s", "samples", "skipped", "shards",
    "folds"}`` where ``folds`` maps ``(span path, stack)`` tuples to
    summed sample counts across every process.
    """
    paths = shard_paths(trace_path)
    if not paths:
        raise ObsError(
            f"no profile shards under {profile_dir_for(trace_path)} — "
            "run with --profile (or REPRO_PROFILE=1) to record them"
        )
    folds: dict[tuple, int] = {}
    headers: list[dict] = []
    for path in paths:
        shard = load_shard(path)
        headers.append(shard["header"])
        for key, count in shard["folds"].items():
            folds[key] = folds.get(key, 0) + count
    return {
        "trace": headers[0].get("trace", ""),
        "interval_s": max(
            float(header.get("interval_s") or 0.0) for header in headers
        ) or DEFAULT_INTERVAL_S,
        "samples": sum(int(header.get("samples", 0)) for header in headers),
        "skipped": sum(int(header.get("skipped", 0)) for header in headers),
        "shards": headers,
        "folds": folds,
    }


def _collapsed_key(span: tuple, stack: tuple) -> str:
    """One collapsed-stack line's frame part: spans first, then code."""
    parts = [f"span:{name}" for name in span]
    parts.extend(stack)
    return ";".join(parts) if parts else "(idle)"


def collapsed_lines(profile: dict[str, Any]) -> list[str]:
    """Collapsed-stack text lines, heaviest stack first (then lexical).

    The standard ``frame;frame;... count`` format every flamegraph
    tool consumes; span frames carry a ``span:`` prefix so work is
    attributed under its span path in the rendered flame.
    """
    rows = [
        (_collapsed_key(span, stack), count)
        for (span, stack), count in profile["folds"].items()
    ]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return [f"{key} {count}" for key, count in rows]


def hot_by_span(
    profile: dict[str, Any],
) -> dict[tuple[str, ...], dict[str, int]]:
    """Self-sample counts of each executing function, per span path.

    The *leaf* frame of every sample is the code actually on-stack-top
    when the sampler fired — the flat-profile "self time" notion —
    folded separately under each span path.
    """
    folded: dict[tuple[str, ...], dict[str, int]] = {}
    for (span, stack), count in profile["folds"].items():
        leaf = stack[-1] if stack else "(no python frames)"
        slot = folded.setdefault(tuple(span), {})
        slot[leaf] = slot.get(leaf, 0) + count
    return folded


def render_hot_section(profile: dict[str, Any], top: int = 10) -> str:
    """The ``repro report --profile`` section: hot functions per span.

    Span paths order by total sample weight (heaviest first); within
    each, the top-N functions by self samples with their share of the
    path's samples.
    """
    folded = hot_by_span(profile)
    interval = profile["interval_s"]
    total = profile["samples"] or 1
    lines = [
        f"Sampling profile: {profile['samples']} samples · "
        f"interval {interval * 1000.0:.1f} ms · "
        f"{len(profile['shards'])} process(es) · "
        f"{profile['skipped']} idle-thread samples skipped"
    ]
    by_weight = sorted(
        folded.items(),
        key=lambda item: (-sum(item[1].values()), item[0]),
    )
    for span, functions in by_weight:
        span_total = sum(functions.values())
        label = " > ".join(span) if span else "(no open span)"
        lines.append(
            f"  {label} — {span_total} samples "
            f"({100.0 * span_total / total:.1f}% · "
            f"~{span_total * interval:.2f} s)"
        )
        ranked = sorted(
            functions.items(), key=lambda item: (-item[1], item[0])
        )[: max(0, top)]
        for name, count in ranked:
            lines.append(
                f"    {count:>6} ({100.0 * count / span_total:>5.1f}%)  "
                f"{name}"
            )
    return "\n".join(lines)


def speedscope_document(profile: dict[str, Any]) -> dict[str, Any]:
    """A speedscope-compatible ``sampled`` profile of the merged folds.

    Weights are seconds (sample count x interval); span frames are
    prefixed ``span:`` exactly as in the collapsed text, so the two
    views of one run agree frame-for-frame.
    """
    frame_index: dict[str, int] = {}
    samples: list[list[int]] = []
    weights: list[float] = []
    interval = profile["interval_s"]
    rows = sorted(
        profile["folds"].items(), key=lambda item: (-item[1], item[0])
    )
    for (span, stack), count in rows:
        names = [f"span:{name}" for name in span] + list(stack)
        if not names:
            names = ["(idle)"]
        indices = []
        for name in names:
            index = frame_index.setdefault(name, len(frame_index))
            indices.append(index)
        samples.append(indices)
        weights.append(count * interval)
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": profile["trace"] or "repro profile",
        "exporter": "repro.obs.profile",
        "shared": {
            "frames": [{"name": name} for name in frame_index],
        },
        "profiles": [
            {
                "type": "sampled",
                "name": profile["trace"] or "repro profile",
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }

"""Span tracing installed from outside the program, for the traced run.

:func:`install` wraps the public entry point of every layer the
benchmark attributes time to, at every binding site its callers look
it up: a class attribute for methods, and every ``repro.*`` module
global bound to the same function object (``repro.exp.common``
from-imports ``sample_fault_map_batch``, for example).  No file of the
program changes.

Each wrapper records a span: its name, its duration and the part of it
covered by child spans.  A span's *self time* is its duration minus
its children.  Spans are aggregated in memory per process, keyed by
the job a worker is executing (the service's job id, else ``""``), and
written as one JSON file per process when that process exits.  Forked
workers inherit the wrappers and start with empty aggregates.

Counters recorded at the same boundaries (bits sampled, words
decoded, bytes appended, ...) are computed after the wrapped call
returns; their cost is kept out of every span's self time.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import importlib
import json
import multiprocessing.util
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: The span that brackets a workload's timed region; its self time is
#: the time no layer span covered (``trace.unattributed_s``).
REGION = "bench.region"

#: Span recorded in pool workers around each unit of work.
TASK = "resilience.task"

#: ``repro.obs.counter`` names the tracer keeps (the program's own
#: counters, which it emits whether or not its tracing is on).
KEPT_COUNTERS = {
    "cache.memory_hit": "cache.memory_hits",
    "cache.disk_hit": "cache.disk_hits",
    "cache.computed": "cache.computed",
    "work.retries": "resilience.retries",
    "worker.restarts": "resilience.respawns",
}


class Tracer:
    """Per-process span and counter aggregates, flushed at exit."""

    def __init__(self, out_dir: Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.job = ""
        self._local = threading.local()
        # (job, span name) -> [calls, total_s, self_s]
        self.spans: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        # (job, counter name) -> value
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._flushed = False

    # -- process lifetime -------------------------------------------------

    def after_fork(self) -> None:
        """Fresh aggregates in a forked pool worker, flushed at its exit.

        Pool workers leave through ``os._exit``, which skips ``atexit``;
        multiprocessing's own exit finalizers still run, so the flush
        is registered there.
        """
        self._reset()
        self.role = "worker"
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's aggregates as ``spans-<pid>.json``."""
        if self._flushed or self.pid != os.getpid():
            return
        self._flushed = True
        jobs: dict[str, dict[str, Any]] = {}
        with self._lock:
            for (job, name), (calls, total, own) in self.spans.items():
                entry = jobs.setdefault(job, {"spans": {}, "counters": {}})
                entry["spans"][name] = [calls, total, own]
            for (job, name), value in self.counters.items():
                entry = jobs.setdefault(job, {"spans": {}, "counters": {}})
                entry["counters"][name] = value
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps({"pid": self.pid, "role": self.role, "jobs": jobs}),
            encoding="utf-8",
        )
        tmp.replace(path)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[(self.job, name)] += value

    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _close(self, frame: list, job: str | None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        # Remove by identity: a generator span can close out of order.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is frame:
                del stack[index]
                break
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        with self._lock:
            entry = self.spans[(self.job if job is None else job, frame[0])]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]

    def _counted(self, counter: Callable | None, *call: Any) -> None:
        """Run a counter hook with its cost kept out of every self time."""
        if counter is None:
            return
        started = time.perf_counter()
        counter(self, *call)
        stack = self._stack()
        if stack:
            stack[-1][2] += time.perf_counter() - started

    @contextlib.contextmanager
    def region(self, name: str) -> Iterator[None]:
        """The timed region as a span; this process's aggregates restart
        at its entry, so set-up work is left out."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, None)

    def wrap(
        self,
        name: str,
        fn: Callable,
        counter: Callable | None = None,
        job_arg: int | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        A call made while a span of the same name is innermost (a
        subclass delegating to ``super()``) is passed through, so a
        layer is never counted twice.  ``counter(tracer, args, kwargs,
        result)`` runs after the call.  ``job_arg`` names the
        positional argument that carries a job id (the job queue's
        methods), which then keys the span instead of the current job.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            job = None
            if job_arg is not None and len(args) > job_arg:
                job = str(args[job_arg])
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, job)
            tracer._counted(counter, args, kwargs, result)
            return result

        return traced

    def wrap_pool(self, name: str, fn: Callable, sized: bool) -> Callable:
        """A pool's ``run``/``serve`` generator as one span per iteration.

        Code the consumer runs between batches nests inside the span,
        so its own spans are children and leave the span's self time.
        The span also adds ``workers x wall`` to
        ``resilience.dispatch.capacity_s``, the worker time the pool
        had to spend; workers record what they spent in ``TASK`` spans.
        ``sized`` marks ``run(items)``, which spawns one worker per
        item at most.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(pool, *args, **kwargs):
            workers = pool.n_workers
            if sized:
                args = (list(args[0]),) + args[1:]
                workers = min(workers, len(args[0]))
            frame = tracer._open(name)
            try:
                yield from fn(pool, *args, **kwargs)
            finally:
                tracer._close(frame, None)
                tracer.count(
                    "resilience.dispatch.capacity_s",
                    workers * (time.perf_counter() - frame[1]),
                )

        return traced


# --------------------------------------------------------------------------
# Counter hooks (run after the wrapped call returns)
# --------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_sample(tracer: Tracer, args, kwargs, result) -> None:
    n_trials = _arg(args, kwargs, 0, "n_trials")
    n_words = _arg(args, kwargs, 1, "n_words")
    word_bits = _arg(args, kwargs, 2, "word_bits")
    tracer.count("mem.faults.sample.bits", n_trials * n_words * word_bits)
    tracer.count("mem.faults.injected", result.n_faults)


def _count_encode(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("emt.encode.words", np.size(_arg(args, kwargs, 1, "payload")))


def _count_decode(tracer: Tracer, args, kwargs, result) -> None:
    stored = _arg(args, kwargs, 1, "stored")
    words = np.size(stored)
    tracer.count("emt.decode.words", words)
    # Inside a fabric roundtrip the buffer's address range is known, so
    # the words a stuck-at fault actually touches can be counted.
    context = getattr(tracer._local, "roundtrip", None)
    if context is None or words == 0:
        return
    fabric, buffer_name = context
    handle = fabric.buffer(buffer_name)
    width = int(np.shape(stored)[-1])
    fault_map = fabric.sram.fault_map
    window = slice(handle.base, handle.base + width)
    faulty = fault_map.set_mask[..., window] | fault_map.clear_mask[..., window]
    repeats = words // max(faulty.size, 1)
    tracer.count("emt.decode.roundtrip_words", words)
    tracer.count(
        "emt.decode.touched_words", int(np.count_nonzero(faulty)) * repeats
    )


def _count_windows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("runtime.simulate.windows", result.n_processed)


def _file_bytes(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _count_load(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("service.queue.load.bytes", _file_bytes(args[0].path))


# --------------------------------------------------------------------------
# Installation
# --------------------------------------------------------------------------


def _import_all() -> None:
    """Import every ``repro`` module so every binding site exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _rebind(original: Callable, replacement: Callable, name: str) -> None:
    """Point every ``repro.*`` module global bound to ``original`` at
    ``replacement``; raises when there is none, so a renamed function
    fails the traced run instead of leaving ``name`` reading 0."""
    sites = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites += 1
    if sites == 0:
        raise RuntimeError(f"no binding site found for {name}")


def _wrap_method(
    tracer: Tracer, classes, method: str, name: str, **options: Any
) -> None:
    """Wrap ``method`` on every class in ``classes`` that defines it.

    Raises when none does: a renamed method must fail the traced run,
    not leave its layer's metrics reading 0.
    """
    wrapped = 0
    for cls in classes:
        if method in vars(cls):
            setattr(
                cls, method, tracer.wrap(name, vars(cls)[method], **options)
            )
            wrapped += 1
    if wrapped == 0:
        raise RuntimeError(
            f"no class in {[c.__name__ for c in classes]} defines {method}"
            f" (span {name})"
        )


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def install(out_dir: Path, role: str) -> Tracer:
    """Wrap every traced layer in this process; returns the tracer."""
    _import_all()
    from repro import obs
    from repro.apps.base import BiomedicalApp
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore, ShardedResultStore
    from repro.cohort import fleet
    from repro.emt.base import EMT
    from repro.energy.accounting import EnergySystemModel
    from repro.mem import faults
    from repro.mem.fabric import MemoryFabric
    from repro.resilience import supervisor
    from repro.runtime.simulator import BatchCalibrator, MissionSimulator
    from repro.service.client import ServiceClient
    from repro.service.queue import JobQueue
    from repro.signals import dataset

    tracer = Tracer(out_dir, role)

    def function(original: Callable, name: str, **options: Any) -> None:
        _rebind(original, tracer.wrap(name, original, **options), name)

    # Pipeline stages.
    function(
        faults.sample_fault_map_batch, "mem.faults.sample",
        counter=_count_sample,
    )
    codecs = _subclasses(EMT)
    _wrap_method(tracer, codecs, "encode", "emt.encode", counter=_count_encode)
    _wrap_method(tracer, codecs, "decode", "emt.decode", counter=_count_decode)

    roundtrip = MemoryFabric.roundtrip

    @functools.wraps(roundtrip)
    def roundtrip_in_context(self, name, values):
        previous = getattr(tracer._local, "roundtrip", None)
        tracer._local.roundtrip = (self, name)
        try:
            return roundtrip(self, name, values)
        finally:
            tracer._local.roundtrip = previous

    MemoryFabric.roundtrip = tracer.wrap(
        "mem.fabric.roundtrip", roundtrip_in_context
    )
    apps = _subclasses(BiomedicalApp)
    _wrap_method(tracer, apps, "run_batch", "apps.kernel")
    _wrap_method(tracer, apps, "output_snr_batch", "signals.snr")
    function(dataset.load_record, "signals.synth")
    function(dataset.synthesize_record, "signals.synth")
    _wrap_method(tracer, [EnergySystemModel], "evaluate", "energy.price")

    # Execution layers.
    _wrap_method(tracer, [CampaignSpec], "expand", "campaign.plan")
    append = ResultStore.append_many

    @functools.wraps(append)
    def append_measured(self, records):
        before = _file_bytes(self.path)
        append(self, records)
        tracer.count(
            "campaign.store.append.bytes", _file_bytes(self.path) - before
        )

    # A sharded store delegates to one plain store per shard, so bytes
    # are measured once, at the plain store.
    ResultStore.append_many = tracer.wrap(
        "campaign.store.append", append_measured
    )
    _wrap_method(
        tracer, [ShardedResultStore], "append_many", "campaign.store.append"
    )
    _wrap_method(
        tracer, [ResultStore, ShardedResultStore], "load",
        "campaign.store.load",
    )
    pool = supervisor.SupervisedPool
    pool.run = tracer.wrap_pool("resilience.dispatch", pool.run, sized=True)
    pool.serve = tracer.wrap_pool(
        "resilience.dispatch", pool.serve, sized=False
    )
    worker_main = supervisor._worker_main

    def traced_worker_main(fn, *rest):
        @functools.wraps(fn)
        def task(payload):
            if isinstance(payload, dict) and "job_id" in payload:
                tracer.job = str(payload["job_id"])
            try:
                return task_span(payload)
            finally:
                tracer.job = ""

        task_span = tracer.wrap(TASK, fn)
        return worker_main(task, *rest)

    _rebind(worker_main, traced_worker_main, TASK)

    _wrap_method(tracer, [BatchCalibrator], "calibrate", "runtime.calibrate")
    _wrap_method(
        tracer, [MissionSimulator], "run", "runtime.simulate",
        counter=_count_windows,
    )
    _wrap_method(tracer, [fleet.FleetSimulator], "simulate_patient",
                 "cohort.patient")
    function(fleet.simulate_patient, "cohort.patient")

    _wrap_method(tracer, [JobQueue], "submit", "service.queue.submit",
                 job_arg=1)
    _wrap_method(tracer, [JobQueue], "mark", "service.queue.mark", job_arg=1)
    _wrap_method(tracer, [JobQueue], "load", "service.queue.load",
                 counter=_count_load)
    _wrap_method(tracer, [ServiceClient], "submit_campaign",
                 "service.client.submit")

    counter = obs.counter

    @functools.wraps(counter)
    def counted(name, value=1.0, **attrs):
        kept = KEPT_COUNTERS.get(name)
        if kept is not None:
            tracer.count(kept, value)
        return counter(name, value, **attrs)

    _rebind(counter, counted, "obs.counter")

    # Forked pool workers inherit this registration.
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    atexit.register(tracer.flush)
    return tracer

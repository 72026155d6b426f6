"""The benchmark's own tracer: timing wrappers around the public callables
of each layer, installed from outside (nothing in ``src/`` changes).

``Tracer.install()`` patches class attributes in place and rebinds every
``repro.*`` module global that holds the same function object (``from x
import f`` makes a second binding).  A target that no longer exists is
skipped and counted in ``unresolved``, so a refactor that deletes an
internal loses a ledger row, not the benchmark.

A span is accounted only while the harness has an op open on the calling
thread (``harness.TLS.op`` is ``(block, op)`` inside a timed region and
``None`` elsewhere), so set-up, warm-up, barriers and oracle checks stay
out of the ledger.  Accounting is folded on the fly into one row per
``(target, parent target)`` edge — calls, total, self and waiting time —
so memory stays bounded on workloads with tens of thousands of spans per
op; raw spans (name, layer, thread, start, end, parent, op id) are kept
up to a cap for the Chrome trace file.

Self time = duration − time covered by child spans.  Waiting = wall −
thread CPU inside blocking receives (on one pinned CPU that is hand-off
order plus the wait for the interpreter lock, not idle cores); a span's
waiting includes that of the spans beneath it.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time

from harness import TLS

#: (layer, module, attribute path, blocking receive?)
#: the span name is the attribute path; adapters are resolved separately
TARGETS = [
    ("core.api", "repro.core.api", "mc_compute_schedule", False),
    ("core.api", "repro.core.api", "mc_compute_plan", False),
    ("core.api", "repro.core.api", "mc_copy", False),
    ("core.api", "repro.core.api", "mc_copy_many", False),
    ("core.api", "repro.core.api", "mc_data_move_send", False),
    ("core.api", "repro.core.api", "mc_data_move_recv", False),
    ("core.api", "repro.core.api", "mc_plan_move_send", False),
    ("core.api", "repro.core.api", "mc_plan_move_recv", False),
    ("core.coupling", "repro.core.coupling", "CoupledExchange.push", False),
    ("core.coupling", "repro.core.coupling", "CoupledExchange.pull", False),
    ("core.coupling", "repro.core.coupling", "CoupledExchange.push_many", False),
    ("core.coupling", "repro.core.coupling", "CoupledExchange.pull_many", False),
    ("core.schedule", "repro.core.schedule", "build_schedule", False),
    ("core.schedule", "repro.core.schedule", "CommSchedule.reverse", False),
    ("core.linearization", "repro.core.linearization", "Linearization.to_global", False),
    ("core.linearization", "repro.core.linearization", "Linearization.range_to_global", False),
    ("core.linearization", "repro.core.linearization", "Linearization.all_global", False),
    ("core.linearization", "repro.core.linearization", "check_conformance", False),
    ("core.linearization", "repro.core.setofregions", "SetOfRegions.lin_to_global", False),
    ("core.plan", "repro.core.plan", "compile_plan", False),
    ("core.plan", "repro.core.plan", "plan_move_send", False),
    ("core.plan", "repro.core.plan", "plan_move_recv", False),
    ("core.datamove", "repro.core.datamove", "data_move_send", False),
    ("core.datamove", "repro.core.datamove", "data_move_recv", False),
    ("core.dataplane", "repro.core.dataplane", "compile_offsets", False),
    ("core.dataplane", "repro.core.dataplane", "MoveProgram.gather", False),
    ("core.dataplane", "repro.core.dataplane", "MoveProgram.scatter", False),
    ("core.dataplane", "repro.core.dataplane", "copy_compiled", False),
    ("core.wire", "repro.core.wire", "FusedBuffer.__init__", False),
    ("core.wire", "repro.core.wire", "FusedBuffer.segment", False),
    ("core.wire", "repro.core.wire", "FusedBuffer.release", False),
    ("core.cache", "repro.core.cache", "ScheduleCache.get_or_build", False),
    ("core.cache", "repro.core.cache", "ScheduleCache.get_or_build_plan", False),
    ("vmachine.comm", "repro.vmachine.comm", "Communicator.send", False),
    ("vmachine.comm", "repro.vmachine.comm", "Communicator.recv", False),
    ("vmachine.comm", "repro.vmachine.comm", "Communicator.isend", False),
    ("vmachine.comm", "repro.vmachine.comm", "Communicator.irecv", False),
    ("vmachine.comm", "repro.vmachine.comm", "Communicator.recv_any", False),
    ("vmachine.comm", "repro.vmachine.comm", "InterComm.send", False),
    ("vmachine.comm", "repro.vmachine.comm", "InterComm.recv", False),
    ("vmachine.comm", "repro.vmachine.comm", "InterComm.irecv", False),
    ("vmachine.comm", "repro.vmachine.comm", "InterComm.recv_any", False),
    ("vmachine.comm", "repro.vmachine.comm", "Request.wait", False),
    ("vmachine.comm", "repro.vmachine.comm", "Request.waitany", False),
    ("vmachine.comm", "repro.vmachine.comm", "Request.waitall", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.barrier", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.bcast", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.gather", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.allgather", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.scatter", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.alltoall", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.alltoall_sparse", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.reduce", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.allreduce", False),
    ("vmachine.collective", "repro.vmachine.comm", "Communicator.scan", False),
    ("vmachine.mailbox", "repro.vmachine.message", "Mailbox.receive", True),
    ("vmachine.mailbox", "repro.vmachine.message", "Mailbox.receive_any_of", True),
    ("vmachine.arena", "repro.vmachine.message", "PackArena.checkout", False),
    ("vmachine.window", "repro.vmachine.window", "Window.put", False),
    ("vmachine.window", "repro.vmachine.window", "Window.get", False),
    ("vmachine.window", "repro.vmachine.window", "Window.accumulate", False),
    ("vmachine.window", "repro.vmachine.window", "Window.fetch_add", False),
    ("vmachine.window", "repro.vmachine.window", "Window.compare_and_swap", False),
    ("vmachine.window", "repro.vmachine.window", "Window.fence", False),
    ("vmachine.reliability", "repro.vmachine.reliability", "Reliability.send", False),
    ("vmachine.reliability", "repro.vmachine.reliability", "Reliability.recv", False),
    ("vmachine.reliability", "repro.vmachine.reliability", "Reliability.recv_any", False),
    ("vmachine.reliability", "repro.vmachine.reliability", "Reliability.fence", False),
    ("containers", "repro.containers.hashmap", "DistHashMap.insert_all", False),
    ("containers", "repro.containers.hashmap", "DistHashMap.accumulate_all", False),
    ("containers", "repro.containers.hashmap", "DistHashMap.find_all", False),
    ("containers", "repro.containers.hashmap", "DistHashMap.local_items", False),
    ("containers", "repro.containers.queue", "DistQueue.push_all", False),
    ("containers", "repro.containers.queue", "DistQueue.pop_all", False),
    ("service", "repro.service.dispatch", "execute_round", False),
    ("service", "repro.service.server", "serve_service", False),
    ("service", "repro.service.server", "_execute_batch", False),
    ("apps.cp_als", "repro.apps.cp_als", "cp_als_spmd", False),
]

#: adapter methods wrapped on every registered library's adapter class,
#: under the library's own layer name (``chaos``, ``blockparti``, ``hpf``…)
ADAPTER_METHODS = ("deref_lin", "deref_range", "local_elements", "pack",
                   "pack_into", "unpack", "copy_local")

#: raw spans kept for the Chrome trace file, over all threads
RAW_SPAN_CAP = 60_000


class _Thread:
    """Per-thread accounting; only ever touched by its own thread."""

    __slots__ = ("name", "stack", "edges", "top_s", "raw")

    def __init__(self, name):
        self.name = name
        self.stack = []   # open frames: [target, t0, child_s, cpu0, raw index, wait_s]
        self.edges = {}   # (target, parent) -> [calls, total_s, self_s, wait_s]
        self.top_s = 0.0  # time under top-level spans (coverage numerator)
        self.raw = []     # [target, t0, t1, parent raw index, op]


class Tracer:
    def __init__(self, keep_raw: bool = True):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.unresolved: list[str] = []
        self.raw_left = RAW_SPAN_CAP if keep_raw else 0
        self._threads: list[_Thread] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def _state(self) -> _Thread:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _Thread(threading.current_thread().name)
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, fn, layer: str, name: str, blocking: bool = False):
        """The timing wrapper for one target (also used directly by tests)."""
        target = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        now, cpu, state = time.perf_counter, time.thread_time, self._state
        tls = TLS

        def wrapper(*args, **kwargs):
            op = getattr(tls, "op", None)
            if op is None:
                return fn(*args, **kwargs)
            st = state()
            stack = st.stack
            raw = st.raw
            ri = -1
            if self.raw_left > 0:
                self.raw_left -= 1  # racy across threads: the cap is approximate
                ri = len(raw)
                raw.append(None)
            frame = [target, 0.0, 0.0, cpu() if blocking else 0.0, ri, 0.0]
            stack.append(frame)
            frame[1] = t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                wait = frame[5]  # waiting inside child spans
                if blocking:
                    wait += max(0.0, dur - (cpu() - frame[3]))
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    parent[5] += wait
                    key = (target, parent[0])
                    pri = parent[4]
                else:
                    st.top_s += dur
                    key = (target, -1)
                    pri = -1
                row = st.edges.get(key)
                if row is None:
                    row = st.edges[key] = [0, 0.0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[2]
                row[3] += wait
                if ri >= 0:
                    raw[ri] = (target, t0, t1, pri, op)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing --------------------------------------------------------------

    def _patch(self, owner, attr: str, layer: str, name: str, blocking: bool):
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        original = getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else original
        wrapped = self.wrap(fn, layer, name, blocking)
        self._patched.append((owner, attr, raw if raw is not None else original))
        setattr(owner, attr,
                staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        # ``from module import fn`` bound the same object elsewhere
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("repro") or mod is None or mod is owner:
                continue
            for gname, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, gname, fn))
                    setattr(mod, gname, wrapped)

    def install(self, targets=TARGETS, adapters: bool = True) -> "Tracer":
        for layer, modname, path, blocking in targets:
            try:
                owner = importlib.import_module(modname)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                self.unresolved.append(f"{modname}:{path}")
                continue
            self._patch(owner, attr, layer, path, blocking)
        if adapters:
            self._install_adapters()
        return self

    def _install_adapters(self) -> None:
        try:
            from repro.core.registry import get_adapter, registered_libraries
        except ImportError:
            self.unresolved.append("repro.core.registry:get_adapter")
            return
        for lib in registered_libraries():
            cls = type(get_adapter(lib))
            for method in ADAPTER_METHODS:
                if not hasattr(cls, method):
                    self.unresolved.append(f"{lib}:{method}")
                    continue
                fn = getattr(cls, method)
                wrapped = self.wrap(fn, lib, f"{lib}.{method}")
                self._patched.append((cls, method, cls.__dict__.get(method, _ABSENT)))
                setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- reading the ledger --------------------------------------------------------

    def edges(self) -> dict[tuple[str, str], list[float]]:
        """``(target name, parent name or "") -> [calls, total_s, self_s,
        wait_s]`` summed over threads."""
        with self._lock:
            threads = list(self._threads)
        names = self.names
        return _fold(
            ((names[t], names[p] if p >= 0 else ""), row)
            for st in threads for (t, p), row in st.edges.items()
        )

    def by_name(self) -> dict[str, list[float]]:
        return _fold((name, row) for (name, _), row in self.edges().items())

    def by_layer(self) -> dict[str, list[float]]:
        layer_of = dict(zip(self.names, self.layers))
        return _fold((layer_of[name], row) for name, row in self.by_name().items())

    def covered_s(self) -> float:
        """Thread-seconds under top-level spans (= Σ self, waits included)."""
        with self._lock:
            return sum(st.top_s for st in self._threads)

    def span_count(self) -> int:
        return int(sum(row[0] for row in self.by_name().values()))

    def chrome_trace(self, path, meta: dict | None = None) -> int:
        """Write the kept raw spans in Chrome trace-event form."""
        events = []
        with self._lock:
            threads = list(self._threads)
        origin = min((s[1] for st in threads for s in st.raw if s), default=0.0)
        for tid, st in enumerate(threads):
            events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                           "args": {"name": st.name}})
            for i, span in enumerate(st.raw):
                if span is None:
                    continue
                target, t0, t1, parent, op = span
                events.append({
                    "name": self.names[target], "cat": self.layers[target],
                    "ph": "X", "pid": 1, "tid": tid,
                    "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                    "args": {"span": i, "parent": parent,
                             "block": op[0], "op": op[1]},
                })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "metadata": meta or {}}, fh)
        return len(events)


def _fold(keyed_rows) -> dict:
    """Sum ``[calls, total_s, self_s, wait_s]`` rows that share a key."""
    out: dict = {}
    for key, row in keyed_rows:
        acc = out.setdefault(key, [0, 0.0, 0.0, 0.0])
        for i in range(4):
            acc[i] += row[i]
    return out


_ABSENT = object()

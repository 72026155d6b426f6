"""Tenant sessions: the async client API of the coupling service.

A *tenant* is one simulated coupled client: an ``async`` function run as
a task on the gateway's rank 0, holding distributed arrays that live on
the gateway program's ranks and exchanging data with the server's
parallel objects through bindings.  Every session operation enqueues one
operation (subject to admission control) and awaits its future; the
dispatch scheduler drains the queues in collective batch rounds.

Arrays are declared through :class:`ArraySpec` — a deterministic recipe
(library, length, dtype, fill, region) that every gateway rank
materializes identically during the round that carries the ``create``
op.  That is what lets thousands of tenants exist inside one SPMD
program: tenant state is replicated *by construction*, never shipped.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

import numpy as np

from repro.core import mc_new_set_of_regions
from repro.core.region import IndexRegion, SectionRegion
from repro.core.setofregions import SetOfRegions
from repro.distrib.section import Section
from repro.service.admission import BUSY, ServiceBusyError
from repro.service.protocol import (
    PULL,
    PUSH,
    BindOp,
    CallOp,
    CreateOp,
    DisconnectOp,
    GatherOp,
    MoveOp,
    Reply,
    UnbindOp,
)

__all__ = [
    "ArraySpec",
    "TenantSpec",
    "Session",
    "RemoteBinding",
    "SessionClosedError",
    "TenantEvictedError",
    "materialize_array",
    "make_sor",
]


class SessionClosedError(RuntimeError):
    """Operation submitted on a closed (or evicted) session."""


class TenantEvictedError(RuntimeError):
    """The session was evicted (task failure or service shutdown) while
    this operation was queued or in flight."""


@dataclass(frozen=True)
class ArraySpec:
    """Deterministic recipe for a tenant-owned distributed 1-D array.

    ``fill`` is one of ``("zeros",)``, ``("value", v)``, ``("arange",)``
    or ``("rng", seed)``; ``region`` — the binding region over the array
    — is ``("full",)``, ``("slice", start, stop, step)``, ``("perm",
    seed)`` or ``("indices", (...))``.  ``owners`` shapes the chaos
    library's irregular ownership: ``("stride", k)`` assigns global
    element ``i`` to rank ``(i * k) % size``; ``("rng", seed)`` draws
    ownership uniformly.
    """

    lib: str                       # "blockparti" | "hpf" | "chaos"
    n: int
    dtype: str = "float64"
    fill: tuple = ("zeros",)
    region: tuple = ("full",)
    owners: tuple = ("stride", 1)  # chaos only

    @property
    def nbytes(self) -> int:
        return 64

    def global_values(self) -> np.ndarray:
        """The replicated global initial value (deterministic)."""
        dtype = np.dtype(self.dtype)
        kind = self.fill[0]
        if kind == "zeros":
            return np.zeros(self.n, dtype=dtype)
        if kind == "value":
            return np.full(self.n, self.fill[1], dtype=dtype)
        if kind == "arange":
            return np.arange(self.n, dtype=dtype)
        if kind == "rng":
            return np.random.default_rng(self.fill[1]).random(self.n).astype(dtype)
        raise ValueError(f"unknown fill {self.fill!r}")


def make_sor(region: tuple, n: int) -> SetOfRegions:
    """Materialize a region spec over a length-``n`` index space."""
    kind = region[0]
    if kind == "full":
        return mc_new_set_of_regions(SectionRegion(Section.full((n,))))
    if kind == "slice":
        _, start, stop, step = region
        return mc_new_set_of_regions(
            SectionRegion(Section((start,), (stop,), (step,)))
        )
    if kind == "perm":
        perm = np.random.default_rng(region[1]).permutation(n)
        return mc_new_set_of_regions(IndexRegion(perm))
    if kind == "indices":
        return mc_new_set_of_regions(
            IndexRegion(np.asarray(region[1], dtype=np.int64))
        )
    raise ValueError(f"unknown region spec {region!r}")


def materialize_array(spec: ArraySpec, comm) -> Any:
    """Build the rank-local piece of a tenant array (collective)."""
    full = spec.global_values()
    if spec.lib == "blockparti":
        from repro.blockparti import BlockPartiArray

        return BlockPartiArray.from_global(comm, full)
    if spec.lib == "hpf":
        from repro.hpf import HPFArray

        return HPFArray.from_global(comm, full, ("block",))
    if spec.lib == "chaos":
        from repro.chaos import ChaosArray

        kind = spec.owners[0]
        if kind == "stride":
            owners = (np.arange(spec.n) * spec.owners[1]) % comm.size
        elif kind == "rng":
            owners = np.random.default_rng(spec.owners[1]).integers(
                0, comm.size, spec.n
            )
        else:
            raise ValueError(f"unknown owners spec {spec.owners!r}")
        return ChaosArray.from_global(comm, full, owners)
    raise ValueError(f"unsupported tenant library {spec.lib!r}")


@dataclass(frozen=True)
class TenantSpec:
    """One simulated coupled client of the service."""

    name: str
    fn: Callable[["Session"], Awaitable[Any]]


@dataclass
class RemoteBinding:
    """Client half of one tenant<->object bulk-data path."""

    slot: int
    obj: str
    attr: str
    array_name: str
    signature: tuple
    closed: bool = False


@dataclass
class _Pending:
    op: Any
    future: asyncio.Future


@dataclass
class SessionStats:
    ops_ok: int = 0
    ops_failed: int = 0
    ops_shed: int = 0
    #: wall-clock seconds from submission to resolution, per resolved op
    latencies: list = field(default_factory=list)


class Session:
    """The async API one tenant task drives (gateway rank 0 only)."""

    def __init__(self, tenant_id: int, name: str, core):
        self.tenant_id = tenant_id
        self.name = name
        self._core = core  # the gateway dispatcher (duck-typed)
        self.queue: list[_Pending] = []
        self.inflight = 0
        self.closed = False
        self.evicted = False
        self.arrays: dict[str, ArraySpec] = {}
        self.bindings: dict[int, RemoteBinding] = {}
        self.stats = SessionStats()

    # -- plumbing -----------------------------------------------------------

    def _submit(self, op, system: bool = False) -> asyncio.Future:
        if self.closed and not system:
            raise SessionClosedError(f"session {self.name!r} is closed")
        fut: asyncio.Future = self._core.loop.create_future()
        if system:
            self._core.admission.enqueue_system()
        else:
            decision = self._core.admission.try_admit(self.inflight)
            if not decision.admitted:
                self.stats.ops_shed += 1
                fut.set_result(Reply(ok=False, error=BUSY))
                return fut
        self.inflight += 1
        self.queue.append(_Pending(op, fut))
        self._core.notify_work()
        return fut

    async def _transact(self, op) -> Reply:
        t0 = time.perf_counter()
        reply: Reply = await self._submit(op)
        if reply.error == BUSY and not reply.ok:
            raise ServiceBusyError("submission shed by admission control")
        self.stats.latencies.append(time.perf_counter() - t0)
        if not reply.ok:
            self.stats.ops_failed += 1
            raise RemoteServiceError(reply.error)
        self.stats.ops_ok += 1
        return reply

    # -- the tenant-facing operations ---------------------------------------

    async def create_array(self, name: str, spec: ArraySpec) -> None:
        """Materialize a tenant-owned distributed array (gateway-local)."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already exists in this session")
        await self._transact(CreateOp(self.tenant_id, name, spec))
        self.arrays[name] = spec

    async def call(self, obj: str, method: str, *args: Any) -> Any:
        """Invoke an SPMD method on a server object; replicated result."""
        reply = await self._transact(
            CallOp(self.tenant_id, obj, method, tuple(args))
        )
        return reply.value

    async def call_oneway(self, obj: str, method: str, *args: Any) -> None:
        """Fire-and-forget invocation: resolves when dispatched, carries
        no result and reports no server-side errors."""
        await self._transact(
            CallOp(self.tenant_id, obj, method, tuple(args), oneway=True)
        )

    async def bind(self, obj: str, attr: str, array_name: str) -> RemoteBinding:
        """Establish a bulk-data path from a session array to an export."""
        self._array(array_name)
        signature = self._core.signature_of(self.tenant_id, array_name)
        reply = await self._transact(
            BindOp(self.tenant_id, obj, attr, array_name, signature)
        )
        binding = RemoteBinding(
            slot=reply.binding, obj=obj, attr=attr,
            array_name=array_name, signature=signature,
        )
        self.bindings[binding.slot] = binding
        return binding

    async def push(self, binding: RemoteBinding) -> None:
        """Copy the session array into the bound object array."""
        self._check_binding(binding, PUSH)
        await self._transact(MoveOp(self.tenant_id, binding.slot, PUSH))

    async def pull(self, binding: RemoteBinding) -> None:
        """Copy the bound object array back into the session array."""
        self._check_binding(binding, PULL)
        await self._transact(MoveOp(self.tenant_id, binding.slot, PULL))

    async def unbind(self, binding: RemoteBinding) -> None:
        """Release the binding slot on both programs for reuse."""
        if binding.closed:
            return
        await self._transact(UnbindOp(self.tenant_id, binding.slot))
        binding.closed = True
        self.bindings.pop(binding.slot, None)

    async def gather(self, array_name: str) -> np.ndarray | None:
        """The session array's replicated global value (for verification)."""
        self._array(array_name)
        reply = await self._transact(GatherOp(self.tenant_id, array_name))
        return reply.value

    async def close(self) -> None:
        """End the session: release every binding slot, then refuse ops."""
        if self.closed:
            return
        self.closed = True
        await self._submit(DisconnectOp(self.tenant_id), system=True)

    # -- helpers ------------------------------------------------------------

    def _array(self, name: str) -> ArraySpec:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(
                f"session {self.name!r} has no array {name!r}; "
                f"arrays: {sorted(self.arrays)}"
            ) from None

    def _check_binding(self, binding: RemoteBinding, op: str) -> None:
        if binding.closed:
            raise RuntimeError(
                f"cannot {op} on closed binding {binding.slot} "
                f"({binding.obj}.{binding.attr})"
            )


class RemoteServiceError(RuntimeError):
    """A server-side failure, re-raised in the tenant task."""

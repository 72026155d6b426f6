"""Distributed data parallel objects (the paper's stated future work).

Section 6: "we ... are currently studying ways to incorporate distributed
data parallel objects into the CORBA object model ...  Meta-Chaos could be
used as the underlying mechanism for such an extension."

This module is the synchronous, one-client face of :mod:`repro.service`.
A *server* program exports :class:`ParallelObject` instances and calls
:func:`serve_objects`; a *client* program :func:`connect`\\ s and holds
:class:`RemoteObject` proxies.  Every proxy operation is collective over
the client program and is **one service round carrying one op of tenant
0**: rank 0 leads it (:func:`~repro.service.dispatch.lead_round`), the
other ranks follow, and the op's ``Reply`` is broadcast so a failure
raises :class:`RemoteError` on every client rank.  Bulk data never rides
the control channel: it moves between the distributed memories through
the Meta-Chaos schedule established at bind time — the CORBA-missing
piece the paper points at (``examples/image_server.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.service.dispatch import GatewayState, follow_round, lead_round
from repro.service.protocol import (
    PULL, PUSH, BindOp, CallOp, MoveOp, ServiceConfig, ShutdownOp, UnbindOp,
)
from repro.service.server import ParallelObject, serve_service

__all__ = ["BoundArray", "ParallelObject", "serve_objects", "Broker",
           "RemoteError", "RemoteObject", "connect"]


class RemoteError(RuntimeError):
    """A server-side failure, re-raised on every client rank."""


def serve_objects(ctx, client: str, objects: dict[str, ParallelObject]) -> int:
    """Serve ``objects`` to program ``client`` until it shuts the server down
    (collective); returns the ops served, the final shutdown not counted."""
    return serve_service(ctx, client, objects)["ops_served"]


def connect(ctx, server: str) -> "Broker":
    """Connect this client program to the named server program."""
    return Broker(ctx, server)


@dataclass
class BoundArray:
    """One client<->object bulk-data path (tenant 0's slot ``binding_id``),
    serving ``push`` and ``pull`` alike.  ``close()`` releases the slot on
    both programs (collective); a closed binding refuses transfers."""

    binding_id: int
    obj: str
    attr: str
    local_array: Any = None
    owner: Any = field(default=None, repr=False, compare=False)  # the Broker
    closed: bool = field(default=False, compare=False)

    def close(self) -> None:
        self.owner.unbind(self)


class Broker:
    """Connection to one object server program: tenant 0 of its service."""

    def __init__(self, ctx, server: str):
        self.ctx = ctx
        self._state = GatewayState.open(ctx, server, "src", ServiceConfig())

    def object(self, name: str) -> "RemoteObject":
        """Proxy for the server's object ``name`` (no round trip)."""
        return RemoteObject(self, name)

    def unbind(self, binding: BoundArray) -> None:
        """Release ``binding``'s slot on both programs (collective); the
        next ``bind`` reuses the lowest free one.  Idempotent."""
        if not binding.closed:
            self._round(UnbindOp(0, binding.binding_id))
            binding.closed = True

    def shutdown(self) -> None:
        """Stop the server's dispatch loop (collective)."""
        self._round(ShutdownOp("client done"))

    def _round(self, op):
        """One op, one round (collective); returns the op's ``Reply``.  A
        oneway call expects none: nothing comes back, nothing is broadcast."""
        state, answer = self._state, None
        if state.comm.rank == 0:
            answer = lead_round(state, state.rounds, (op,))[1]
        else:
            follow_round(state)
        if isinstance(op, CallOp) and op.oneway:
            return None
        reply = state.comm.bcast(answer and answer.replies[0], root=0)
        if not reply.ok:
            raise RemoteError(reply.error)
        return reply


class RemoteObject:
    """Proxy for one named parallel object on the server."""

    def __init__(self, broker: Broker, name: str):
        self.broker = broker
        self.name = name

    def call(self, method: str, *args: Any) -> Any:
        """Invoke an SPMD method on small replicated ``args``; replicated result."""
        return self.broker._round(CallOp(0, self.name, method, args)).value

    def call_oneway(self, method: str, *args: Any) -> None:
        """Fire-and-forget (CORBA 'oneway'): one control message, no
        reply; failures only bump the server's ``svc_oneway_errors``."""
        self.broker._round(CallOp(0, self.name, method, args, oneway=True))

    def bind(self, attr: str, local_lib: str, local_array: Any,
             local_sor: Any) -> BoundArray:
        """Establish a bulk-data path to the object's exported array
        (collective).  The server grants or refuses *before* either program
        commits to the schedule build, so a refused bind raises cleanly."""
        state, name = self.broker._state, f"{self.name}.{attr}"
        state.arrays[0, name] = (local_lib, local_array, local_sor)
        try:
            reply = self.broker._round(
                BindOp(0, self.name, attr, name, state.signature_of(0, name)))
        finally:
            del state.arrays[0, name]  # the binding record holds the array
        return BoundArray(reply.binding, self.name, attr, local_array, self.broker)

    def push(self, binding: BoundArray, local_array: Any | None = None) -> None:
        """Copy the client's array into the object's array (collective)."""
        self._move(binding, PUSH, local_array)

    def pull(self, binding: BoundArray, local_array: Any | None = None) -> None:
        """Copy the object's array back into the client's (collective)."""
        self._move(binding, PULL, local_array)

    def _move(self, binding: BoundArray, direction: str, local_array) -> None:
        if binding.closed:
            raise RuntimeError(f"cannot {direction} on closed binding "
                               f"{binding.binding_id} ({binding.obj}.{binding.attr})")
        # The slot's record names the array to move: the bound one, or this stand-in.
        self.broker._state.bindings[binding.binding_id].array = (
            binding.local_array if local_array is None else local_array)
        self.broker._round(MoveOp(0, binding.binding_id, direction))

"""The wire-tag map: every tag block the runtime reserves, in one place.

A wire tag is ``context + offset``: each communicator owns the block
``[context, context + CONTEXT_STRIDE)``, and within it

- ``[COLLECTIVE_TAG_BASE, CONTEXT_STRIDE)`` is internal collective traffic;
- ``REL_ACK`` / ``REL_DATA`` are bits the reliable-delivery layer ORs onto
  the tag it carries (acks / data envelopes);
- ``[TAG_RMA_BASE, REL_DATA)`` is one-sided window traffic;
- ``TAG_SCHED_*``, ``TAG_DESCRIPTOR`` and ``TAG_DATA`` are Meta-Chaos's
  schedule-build and data-move messages;
- every other named tag (library-internal and service traffic) lies below
  ``TAG_RMA_BASE``.

Constants only, no imports: the transport, the fault classifier, the
trace formatter and the schedule builder all read the same numbers.
"""

CONTEXT_STRIDE = 1 << 32
COLLECTIVE_TAG_BASE = 1 << 24
REL_ACK = 1 << 23
REL_DATA = 1 << 22
TAG_RMA_BASE = 3 << 20
TAG_SCHED_SRCINFO = 1 << 20
TAG_SCHED_PIECES = (1 << 20) + 1
TAG_DATA = (1 << 20) + 2
TAG_DESCRIPTOR = (1 << 20) + 3

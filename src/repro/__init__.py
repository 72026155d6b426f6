"""Meta-Chaos reproduction: interoperability of data parallel runtime libraries.

This package reproduces, in pure Python/NumPy, the system described in
"Interoperability of Data Parallel Runtime Libraries with Meta-Chaos"
(Edjlali, Sussman, Saltz — IPPS 1997):

- :mod:`repro.vmachine` — a virtual distributed-memory parallel machine
  (rank threads, message passing, LogGP-style logical-clock cost model)
  standing in for the paper's IBM SP2 and DEC Alpha farm;
- :mod:`repro.distrib` — distribution descriptors (block, cyclic,
  block-cyclic, irregular);
- :mod:`repro.blockparti` — the Multiblock Parti analogue (regular
  multiblock arrays, regular-section schedules);
- :mod:`repro.chaos` — the CHAOS analogue (translation tables, irregular
  arrays, inspector/executor gather-scatter schedules);
- :mod:`repro.hpf` — an HPF runtime analogue (BLOCK/CYCLIC arrays, array
  sections, forall, distributed matvec);
- :mod:`repro.pcxx` — a pC++/Tulip-style distributed element collection;
- :mod:`repro.core` — **Meta-Chaos itself**: Regions (sections in C or
  Fortran order, index lists, WHERE-style masks), SetOfRegions, virtual
  linearization, the library-adapter registry, communication-schedule
  construction (cooperation and duplication methods), the data-move
  engine, schedule caching and validation;
- :mod:`repro.service` — the coupling service (the paper's §6 future
  work): ORB-style RPC between coupled programs in batched multi-tenant
  rounds, with bulk arrays riding Meta-Chaos bindings; :mod:`repro.dobj`
  is its synchronous one-client façade;
- :mod:`repro.apps` — the paper's application kernels (coupled
  structured/unstructured mesh solver, client/server matrix-vector
  multiply);
- :mod:`repro.util` — canonical-form gather/scatter (checkpointing
  through the linearization).

See README.md for the full tour and EXPERIMENTS.md for the reproduction of
every table and figure in the paper's evaluation section.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

"""Distributed data structures over one-sided windows (BCL-style).

The paper's interoperability story stops at *array* coupling.  Many
coupled codes also exchange data through *irregular shared structures*
— a particle code publishing into a hash map the solver reads, a work
queue feeding a load balancer.  This subpackage builds both on
:class:`repro.vmachine.window.Window`, as BCL builds containers on
one-sided communication: all their traffic is window operations (a
hash-map write is BCL's buffered insert, one ``put`` epoch the owners
then insert locally), so the containers inherit the cost model, fault
injection, reliability, observability and record/replay of the window
layer, and couple a Chaos-style irregular partition to an HPF BLOCK one
without either side posting matching receives.

Both containers follow the window layer's SPMD discipline: mutating
batches (``insert_all``, ``accumulate_all``, ``find_all``, ``push_all``,
``pop_all``) are *collective* — every rank calls them together, with
empty argument lists when it has nothing to contribute.
"""

from repro.containers.hashmap import DistHashMap
from repro.containers.queue import DistQueue

__all__ = ["DistHashMap", "DistQueue"]

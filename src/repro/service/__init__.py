"""repro.service — the high-throughput multi-tenant coupling service.

Front-end that multiplexes many concurrent client *sessions* onto one
SPMD server group over one batched protocol: an asyncio gateway hosts the
tenant tasks, a collective dispatch scheduler batches independent
operations from different tenants into fused rounds (a lone synchronous
client, :mod:`repro.dobj`, is the one-tenant, one-op-per-round case of
the same rounds), and a shared cross-tenant cache hierarchy
(schedules → fused plans → lowered move programs) makes the marginal
cost of the N-th tenant with a familiar array signature approach zero.

Typical topology (two programs under :func:`repro.vmachine.program.
run_programs`)::

    def gateway(ctx):
        return run_service_gateway(ctx, "server", tenants, config)

    def server(ctx):
        return serve_service(ctx, "gateway", {"sim": SimObject(ctx.comm)},
                             config)

See ``docs/MODEL.md`` §12 for the model and ``docs/API.md`` for the full
surface.
"""

from repro.service.admission import (
    AdmissionControl,
    AdmissionDecision,
    ServiceBusyError,
)
from repro.service.cache import ServiceCache, array_signature, bind_key
from repro.service.frontend import (
    ServiceReport,
    TenantReport,
    run_service_gateway,
)
from repro.service.protocol import (
    PULL,
    PUSH,
    TAG_SERVICE,
    ServiceConfig,
)
from repro.service.server import ParallelObject, serve_service
from repro.service.session import (
    ArraySpec,
    RemoteBinding,
    RemoteServiceError,
    Session,
    SessionClosedError,
    TenantEvictedError,
    TenantSpec,
)

__all__ = [
    "AdmissionControl",
    "AdmissionDecision",
    "ArraySpec",
    "PULL",
    "PUSH",
    "ParallelObject",
    "RemoteBinding",
    "RemoteServiceError",
    "ServiceBusyError",
    "ServiceCache",
    "ServiceConfig",
    "ServiceReport",
    "Session",
    "SessionClosedError",
    "TAG_SERVICE",
    "TenantEvictedError",
    "TenantReport",
    "TenantSpec",
    "array_signature",
    "bind_key",
    "run_service_gateway",
    "serve_service",
]

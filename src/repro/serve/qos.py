"""Multi-tenant QoS: per-tenant admission classes and weighted dispatch.

The plain service treats all traffic as one anonymous stream behind one
admission gate — which means one flooding client spends everyone else's
queue depth and latency budget.  Real walk services (ThunderRW's
application mix: repeated PPR / DeepWalk queries from many products)
carry *classes* of traffic with different rates and different SLOs, so
this module gives :class:`~repro.serve.service.WalkService` tenancy:

* **Per-tenant admission.**  Every :class:`TenantSpec` owns its own
  :class:`~repro.serve.admission.AdmissionGate` of depth ``queue_depth``,
  or ``ServeConfig.queue_depth`` when the spec leaves it unset.  A
  tenant that floods fills its own gate and sheds its own traffic;
  other tenants' gates — and therefore their latency SLOs — are
  untouched.

* **Weighted-priority dispatch.**  :class:`TenantScheduler` buffers
  admitted requests per tenant and composes each admission group by smooth
  weighted round-robin over the backlogged tenants: a tenant with
  weight 8 gets 8 batch slots for every 1 a weight-1 tenant gets while
  both are backlogged, and idle tenants donate their slots.  The pick
  sequence is deterministic (no RNG, fixed construction-order
  tie-break), so batch composition — like everything else in the serve
  layer — is reproducible.

QoS is *scheduling, never semantics*: tenancy decides when a request
runs and whether it is shed, but a served request's paths are still
``SeedSequence((seed, query_id))``-determined and bit-identical to the
offline replay oracle regardless of tenant interleaving.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ServeError
from repro.serve.admission import AdmissionGate

#: Tenant name used when a service is built without explicit tenants
#: (and the one `try_submit` assumes when no tenant is given).
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantSpec:
    """One admission class of a multi-tenant service.

    ``weight``
        Dispatch priority share: while several tenants are backlogged,
        batch slots are split proportionally to weight.
    ``queue_depth``
        Admission high-water for this tenant's gate; ``None`` takes the
        service's ``ServeConfig.queue_depth``.
    """

    name: str
    weight: int = 1
    queue_depth: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("tenant name must be non-empty")
        if self.weight < 1:
            raise ServeError(
                f"tenant {self.name!r} weight must be >= 1, got {self.weight}"
            )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ServeError(
                f"tenant {self.name!r} queue_depth must be >= 1, "
                f"got {self.queue_depth}"
            )


class TenantScheduler:
    """Per-tenant admission gates plus weighted-priority batch composition.

    The service's dispatch loop pushes admitted requests (and cache pool
    fills) here instead of batching them FIFO; :meth:`next_batch` then
    composes each admission group by smooth weighted round-robin.  Like
    :class:`AdmissionGate`, all state is plain single-threaded (asyncio)
    bookkeeping.

    Smooth weighted round-robin: each pick adds every backlogged
    tenant's weight to its credit, selects the highest credit (first
    declared wins ties), and charges the winner the total backlogged
    weight.  Over any window where a set of tenants stays backlogged,
    picks converge to the weight proportions, and the interleaving is
    smooth (a weight-5 tenant is not served 5-in-a-row).
    """

    def __init__(self, specs: list[TenantSpec] | tuple[TenantSpec, ...],
                 default_depth: int) -> None:
        if not specs:
            raise ServeError("TenantScheduler needs at least one tenant")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ServeError(f"duplicate tenant names in {names}")
        self._specs = {spec.name: spec for spec in specs}
        self._order = names
        self._queues: dict[str, deque] = {name: deque() for name in names}
        self._gates = {
            spec.name: AdmissionGate(spec.queue_depth or default_depth)
            for spec in specs
        }
        self._credit = {name: 0 for name in names}
        self._fills: deque = deque()
        self._pending_clients = 0
        self._occupancy = 0

    @property
    def tenant_names(self) -> tuple[str, ...]:
        return tuple(self._order)

    @property
    def occupancy(self) -> int:
        """Requests admitted and not yet released, over every tenant."""
        return self._occupancy

    @property
    def pending_clients(self) -> int:
        """Client requests buffered and not yet composed into a batch."""
        return self._pending_clients

    def has_work(self) -> bool:
        return self._pending_clients > 0 or bool(self._fills)

    def gate(self, tenant: str) -> AdmissionGate:
        try:
            return self._gates[tenant]
        except KeyError:
            raise ServeError(
                f"unknown tenant {tenant!r}; this service declares "
                f"{self._order}"
            ) from None

    def admit(self, tenant: str) -> None:
        """Count one request into ``tenant``'s gate (sheds past its depth)."""
        self.gate(tenant).admit()
        self._occupancy += 1

    def release(self, tenant: str, count: int = 1) -> None:
        self.gate(tenant).release(count)
        self._occupancy -= count

    def backlog(self) -> dict[str, int]:
        """Buffered-but-undispatched client requests per tenant.

        A point-in-time telemetry gauge (``WalkService.snapshot_metrics``):
        distinct from gate occupancy, which also counts requests already
        seated in the frontier.
        """
        return {name: len(self._queues[name]) for name in self._order}

    def occupancies(self) -> dict[str, int]:
        """Admitted-and-unresolved requests per tenant (gate view)."""
        return {name: self._gates[name].occupancy for name in self._order}

    def push(self, item) -> None:
        """Buffer one dispatchable item (request or pool fill)."""
        tenant = getattr(item, "tenant", None)
        if tenant is None:
            self._fills.append(item)
        else:
            self._queues[tenant].append(item)
            self._pending_clients += 1

    def _pick(self, backlogged: list[str]) -> str:
        total = sum(self._specs[name].weight for name in backlogged)
        best = backlogged[0]
        for name in backlogged:
            self._credit[name] += self._specs[name].weight
            if self._credit[name] > self._credit[best]:
                best = name
        self._credit[best] -= total
        return best

    def next_batch(self, max_batch: int) -> list:
        """Compose one admission group: weighted client picks plus one fill.

        Up to ``max_batch`` client requests by weighted round-robin
        (FIFO within each tenant), then at most one pending cache pool
        fill appended whole — fills are atomic (a pool's entries must
        all come from one engine run on one epoch) and gate-exempt, so
        they ride along without displacing client slots.

        A tenant backlogged alone wins every pick, and each pick credits
        it its weight and charges it the same total, so its run of picks
        is taken as one slice — the same requests, credits unchanged.
        """
        batch: list = []
        while self._pending_clients and len(batch) < max_batch:
            backlogged = [name for name in self._order if self._queues[name]]
            if len(backlogged) == 1:
                queue = self._queues[backlogged[0]]
                take = min(max_batch - len(batch), len(queue))
                batch.extend([queue.popleft() for _ in range(take)])
                self._pending_clients -= take
                break
            batch.append(self._queues[self._pick(backlogged)].popleft())
            self._pending_clients -= 1
        if self._fills:
            batch.append(self._fills.popleft())
        return batch

    def drain_all(self) -> list:
        """Remove and return everything buffered (dispatcher teardown)."""
        items: list = []
        for name in self._order:
            items.extend(self._queues[name])
            self._queues[name].clear()
        items.extend(self._fills)
        self._fills.clear()
        self._pending_clients = 0
        return items

"""The client-side transport round-trip, shared by every CAS caller.

The startd's single-op and batch calls and the user client's both run
the same sequence — encode, request over the simulated network, wait,
map transport failure to a typed ``INTERNAL/transport`` fault, decode —
so it lives here once.  Divergence between the single-op and batch
fault behaviour was exactly the bug class this prevents.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.condorj2.web.soap import ServiceFault, envelope_size
from repro.sim.kernel import Wait
from repro.sim.network import RpcResult


def rpc_roundtrip(endpoint: Any, kind: str, envelope: str,
                  decoder: Callable[[str], Any]) -> Generator:
    """Coroutine: one envelope to the CAS and its decoded reply.

    ``endpoint`` is any network-registered daemon/client exposing
    ``network`` and ``cas_address``.  Transport failure (the message
    never arrived) raises a typed ``ServiceFault`` with the ``transport``
    subcode; application-level faults are whatever ``decoder`` does
    with the reply envelope.
    """
    signal = endpoint.network.request(
        endpoint, endpoint.cas_address, kind, payload=envelope,
        size_bytes=envelope_size(envelope),
    )
    _, result = yield Wait(signal)
    assert isinstance(result, RpcResult)
    if not result.ok:
        raise ServiceFault(f"transport failure: {result.error!r}",
                        subcode="transport")
    return decoder(result.value)

"""External interfaces: SOAP web services and the pool web site."""

from repro.condorj2.web.services import WebServiceRegistry
from repro.condorj2.web.site import PoolWebSite
from repro.condorj2.web.soap import (
    ServiceFault,
    decode_batch_response,
    decode_envelope,
    decode_request,
    decode_response,
    encode_batch_request,
    encode_batch_response,
    encode_request,
    encode_response,
    envelope_size,
)

__all__ = [
    "PoolWebSite",
    "ServiceFault",
    "WebServiceRegistry",
    "decode_batch_response",
    "decode_envelope",
    "decode_request",
    "decode_response",
    "encode_batch_request",
    "encode_batch_response",
    "encode_request",
    "encode_response",
    "envelope_size",
]

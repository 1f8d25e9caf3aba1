"""Networked shard serving: wire protocol, server, client, transport.

A shard server exposes one warm-started
:class:`~repro.service.session.PathService` over HTTP; a router reaches it
through the :class:`RemoteTransport`, which
:meth:`~repro.shard.spec.ShardSpec.open` picks for any ``http(s)://``
shard address, so::

    router = ShardRouter.open(
        catalog_paths=["catalogs/a", "http://10.0.0.7:8155"])

mixes an in-process shard with a networked one behind the same router.

Run a shard server with ``python -m repro.serve --catalog catalogs/a``.
"""

from __future__ import annotations

from repro.serve.client import ShardClient
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.server import ShardServer
from repro.serve.transport import RemoteTransport

__all__ = [
    "PROTOCOL_VERSION",
    "RemoteTransport",
    "ShardClient",
    "ShardServer",
]

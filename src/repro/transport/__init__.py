"""Multi-host dataflow: pluggable transports for shuffle, parameter-server
traffic and broadcasts.

* :mod:`repro.transport.wire` — the CRC-trailed frame grammar lifted from
  spill files onto sockets (byte-counting connections).
* :mod:`repro.transport.cluster` — host roster + port plan (``--hosts``).
* :mod:`repro.transport.shuffle` — ``local`` / ``tcp`` / ``shared-dir``
  shuffle transports behind one :class:`ShuffleTransport` seam.
* :mod:`repro.transport.broadcast` — named immutable payloads served
  over TCP and fetched once per joining host.
* :mod:`repro.transport.worker` — the ``repro worker --join`` control
  plane for remote trainer workers.
"""

from repro.transport.broadcast import BroadcastServer, fetch_payload
from repro.transport.cluster import ClusterSpec, HostSpec, host_tag
from repro.transport.shuffle import (
    SHUFFLE_TRANSPORTS,
    LocalShuffleTransport,
    SharedDirShuffleTransport,
    ShufflePeerServer,
    TcpFetchSource,
    TcpShuffleTransport,
    make_shuffle_transport,
)
from repro.transport.wire import Conn, connect

__all__ = [
    "SHUFFLE_TRANSPORTS",
    "BroadcastServer",
    "ClusterSpec",
    "Conn",
    "HostSpec",
    "LocalShuffleTransport",
    "SharedDirShuffleTransport",
    "ShufflePeerServer",
    "TcpFetchSource",
    "TcpShuffleTransport",
    "connect",
    "fetch_payload",
    "host_tag",
    "make_shuffle_transport",
]

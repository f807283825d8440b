"""Broadcast over TCP: named immutable payloads, fetched whole.

Side inputs (:func:`repro.mapreduce.partition.publish`) are intra-host:
published once into a shared-memory slab, read by locator.  Across hosts a
locator is meaningless, so a :class:`BroadcastServer` on the coordinator
serves named immutable payloads over the frame wire protocol and a joining
host pulls each one exactly once with :func:`fetch_payload`.  Payloads are
immutable by contract, so there is no coherence protocol: a name is
published once and fetched whole.
"""

from __future__ import annotations

import threading

from repro.proto.framing import FrameCorruptionError
from repro.transport.wire import Conn, connect

__all__ = ["BroadcastServer", "fetch_payload"]


class BroadcastServer:
    """Serves named immutable byte payloads to joining hosts."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        import socket

        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._payloads: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.bytes_sent = 0
        self._thread = threading.Thread(
            target=self._accept_loop, name="broadcast-server", daemon=True
        )
        self._thread.start()

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.host, self.port

    def publish(self, name: str, payload: bytes) -> None:
        with self._lock:
            existing = self._payloads.get(name)
            if existing is not None and existing != payload:
                raise ValueError(f"broadcast {name!r} already published")
            self._payloads[name] = bytes(payload)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        try:
            self._listener.close()
        except OSError:
            pass

    def _accept_loop(self) -> None:
        import socket

        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_conn, args=(sock,), daemon=True
            ).start()

    def _serve_conn(self, sock) -> None:
        sock.settimeout(30.0)
        conn = Conn(sock)
        try:
            while not self._stop.is_set():
                frame = conn.recv()
                if frame is None:
                    return
                kind, payload = frame
                if kind != b"get":
                    conn.send(b"error", f"unknown request {kind!r}".encode())
                    return
                name = payload.decode()
                with self._lock:
                    data = self._payloads.get(name)
                if data is None:
                    conn.send(b"missing", name.encode())
                else:
                    conn.send(b"payload", data)
        except (OSError, FrameCorruptionError):
            pass
        finally:
            with self._lock:
                self.bytes_sent += conn.bytes_sent
            conn.close()


def fetch_payload(host: str, port: int, name: str) -> bytes:
    """One-shot fetch of a named broadcast payload (CRC-verified frame)."""
    with connect(host, port) as conn:
        kind, payload = conn.request(b"get", name.encode())
    if kind == b"payload":
        return payload
    if kind == b"missing":
        raise KeyError(f"broadcast {name!r} not published at {host}:{port}")
    raise ConnectionResetError(f"broadcast fetch failed: {kind!r}")


"""Pluggable shuffle transports: how reduce tasks reach map-side runs.

The spill layer (:mod:`repro.mapreduce.spill`) fixes *what* a shuffle looks
like on disk — key-sorted AGLS run files per ``(map task, partition)``.
A :class:`ShuffleTransport` decides *where those bytes live relative to the
reducer* and how they get to it:

* ``local`` — the intra-host fast path: reducers open the run files
  directly (same process tree, same filesystem).  Byte-identical to the
  historical behaviour by construction — it *is* the historical behaviour.
* ``tcp`` — shuffle peering: map tasks still spill locally, and a
  :class:`ShufflePeerServer` on the writer's host serves the session's run
  files over the frame wire protocol (:mod:`repro.transport.wire`).  A
  reduce task fetches its partition's runs — *file names preserved* — into
  a private staging directory and runs the standard k-way merge over them.
  CRC-32 travels end-to-end twice over: each wire frame carries its own
  trailer, and the payload bytes are an AGLS spill file whose per-frame
  CRCs are re-verified during the merge.  A flipped bit on the wire or a
  reset connection fails the attempt loudly; the retry policy re-fetches.
* ``shared-dir`` — the DFS-mediated transport (lithops-style, SNIPPETS.md
  Snippet 3): map-side runs are *pushed at write time* into per-reduce-
  partition peer directories (``p00007/``) under the shared ``spill_dir``
  mount, one directory per partition the job's partition function names.
  Reducers on any host merge straight out of their partition's directory.

All three produce byte-identical job output: the run files are the same
bytes in the same merge order; only the path they travel differs.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from repro.mapreduce.fault import take_conn_fault
from repro.mapreduce.spill import SpillLayout
from repro.proto.framing import FrameCorruptionError, decode_value, encode_value
from repro.transport.cluster import ClusterSpec
from repro.transport.wire import Conn, connect

__all__ = [
    "SHUFFLE_TRANSPORTS",
    "LocalShuffleTransport",
    "SharedDirShuffleTransport",
    "ShufflePeerServer",
    "TcpFetchSource",
    "TcpShuffleTransport",
    "make_shuffle_transport",
]

SHUFFLE_TRANSPORTS = ("local", "tcp", "shared-dir")


# ------------------------------------------------------------------ protocol
class LocalShuffleTransport:
    """Pass-through: reducers read run files straight off the filesystem."""

    name = "local"
    partition_subdirs = False

    def register_root(self, root: str) -> None:  # pragma: no cover - trivial
        pass

    def source(self, layout: SpillLayout, partition: int, num_map_tasks: int):
        # Deferred import: runtime imports this module, not vice versa.
        from repro.mapreduce.runtime import _SpillSource

        return _SpillSource(layout, partition, num_map_tasks)

    def account(self, stats) -> None:
        pass

    def close(self) -> None:
        pass


class SharedDirShuffleTransport(LocalShuffleTransport):
    """Map-side push into per-partition peer directories under a shared
    (DFS-mounted) ``spill_dir``.  Requires the runtime to have one; reads
    are plain local merges of the partition's own directory."""

    name = "shared-dir"
    partition_subdirs = True

    def account(self, stats) -> None:
        # Every spilled byte crossed the shared mount twice: pushed by the
        # writer, read back by the owning reducer.
        stats.transport_bytes_sent += stats.shuffle_bytes_written
        stats.transport_bytes_received += stats.shuffle_bytes_written


# ----------------------------------------------------------------- TCP peer
class ShufflePeerServer:
    """Serves a session's spill run files over the frame wire protocol.

    One listening thread, one handler thread per fetcher connection.  Only
    paths under explicitly registered roots are readable, and request
    patterns may not traverse directories — the server exposes shuffle
    runs, not the filesystem.

    Protocol (all frames CRC-trailed): request ``fetch`` with payload
    ``(root, pattern)``; response is a stream of ``run`` frames (key =
    ``run:<name>``, payload = the file bytes) followed by one ``done``
    frame whose payload is the sorted name list (the fetcher cross-checks
    it received everything).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        import socket

        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._roots: set[str] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.bytes_sent = 0
        self.bytes_received = 0
        self._thread = threading.Thread(
            target=self._accept_loop, name="shuffle-peer", daemon=True
        )
        self._thread.start()

    def register_root(self, root: str) -> None:
        with self._lock:
            self._roots.add(str(Path(root).resolve()))

    def take_stats(self) -> tuple[int, int]:
        with self._lock:
            sent, received = self.bytes_sent, self.bytes_received
            self.bytes_sent = 0
            self.bytes_received = 0
        return sent, received

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        try:
            self._listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------- internals
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
                if kind != b"fetch":
                    conn.send(b"error", f"unknown request {kind!r}".encode())
                    return
                self._handle_fetch(conn, payload)
        except (OSError, FrameCorruptionError):
            pass  # fetcher died or garbled a request; its retry reconnects
        finally:
            with self._lock:
                self.bytes_sent += conn.bytes_sent
                self.bytes_received += conn.bytes_received
            conn.close()

    def _handle_fetch(self, conn: Conn, payload: bytes) -> None:
        (root, pattern), _ = decode_value(payload)
        resolved = str(Path(root).resolve())
        with self._lock:
            allowed = resolved in self._roots or any(
                resolved.startswith(r + os.sep) for r in self._roots
            )
        if not allowed or "/" in pattern or ".." in pattern:
            conn.send(b"error", f"root {root!r} not served".encode())
            return
        names = sorted(p.name for p in Path(resolved).glob(pattern) if p.is_file())
        for name in names:
            conn.send(b"run:" + name.encode(), (Path(resolved) / name).read_bytes())
        conn.send(b"done", encode_value(names))


@dataclass(frozen=True)
class TcpFetchSource:
    """Picklable reduce-side source: fetch one partition's run files from a
    peer server into a private staging directory, then run the standard
    streamed k-way merge over them.  Names are preserved, so merge order —
    task-major, then run order — is exactly the local transport's, and the
    output is byte-identical."""

    layout: SpillLayout
    host: str
    port: int
    partition: int
    num_map_tasks: int

    def groups(self):
        return self._merged("iter_groups")

    def segments(self):
        return self._merged("iter_segments")

    def _merged(self, reader: str):
        staging = tempfile.mkdtemp(prefix="mrfetch.")
        try:
            self._fetch_runs(staging)
            local = replace(self.layout, root=staging, partition_subdirs=False)
            yield from getattr(local, reader)(self.partition, self.num_map_tasks)
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    def _fetch_runs(self, staging: str) -> None:
        # An armed conn-reset fault (FaultPlan) injures this attempt's
        # *connection*, never the server's files: the fetch dies mid-stream
        # with ConnectionResetError (retryable) and the retry re-fetches
        # the intact runs — the network twin of corrupt-run/truncate-run.
        fault = take_conn_fault()
        ext = self.layout.run_path(0, 0, 0).suffix.lstrip(".")
        pattern = f"{self.layout.job_name}.m*.p{self.partition:05d}.r*.{ext}"
        with connect(self.host, self.port) as conn:
            conn.send(b"fetch", encode_value((self.layout.root, pattern)))
            received: list[str] = []
            while True:
                frame = conn.recv()
                if frame is None:
                    raise ConnectionResetError(
                        "shuffle peer closed the connection mid-fetch"
                    )
                kind, payload = frame
                if kind.startswith(b"run:"):
                    name = kind[4:].decode()
                    if "/" in name or ".." in name:
                        raise FrameCorruptionError(f"unsafe run name {name!r}")
                    (Path(staging) / name).write_bytes(payload)
                    received.append(name)
                    if fault == "conn-reset":
                        raise ConnectionResetError(
                            "injected connection reset mid-shuffle-fetch"
                        )
                elif kind == b"done":
                    names, _ = decode_value(payload)
                    if sorted(received) != sorted(names):
                        raise ConnectionResetError(
                            "shuffle fetch incomplete: "
                            f"got {len(received)} of {len(names)} runs"
                        )
                    if fault == "conn-reset" and not received:
                        # Empty partition: still exercise the injected fault
                        # so the accounting matches the plan's counters.
                        raise ConnectionResetError(
                            "injected connection reset mid-shuffle-fetch"
                        )
                    return
                elif kind == b"error":
                    raise ConnectionResetError(
                        f"shuffle peer rejected fetch: {payload.decode()}"
                    )
                else:
                    raise FrameCorruptionError(f"unknown shuffle frame {kind!r}")


class TcpShuffleTransport:
    """Shuffle peering: spill locally, serve the session directory, fetch
    partitions over TCP."""

    name = "tcp"
    partition_subdirs = False

    def __init__(self, cluster: ClusterSpec | None = None):
        spec = (cluster or ClusterSpec.loopback()).coordinator
        # Bind loopback unless a routable roster says otherwise: the peer
        # server exposes spill bytes and should not listen wide by default.
        host = spec.host if cluster is not None else "127.0.0.1"
        self._server = ShufflePeerServer(host, spec.shuffle_port)

    @property
    def endpoint(self) -> tuple[str, int]:
        return self._server.host, self._server.port

    def register_root(self, root: str) -> None:
        self._server.register_root(root)

    def source(self, layout: SpillLayout, partition: int, num_map_tasks: int):
        return TcpFetchSource(
            layout, self._server.host, self._server.port, partition, num_map_tasks
        )

    def account(self, stats) -> None:
        sent, received = self._server.take_stats()
        stats.transport_bytes_sent += sent
        stats.transport_bytes_received += received

    def close(self) -> None:
        self._server.close()


def make_shuffle_transport(name: str, cluster: ClusterSpec | None = None):
    """Factory keyed by the runtime's ``shuffle_transport`` knob."""
    if name == "local":
        return LocalShuffleTransport()
    if name == "shared-dir":
        return SharedDirShuffleTransport()
    if name == "tcp":
        return TcpShuffleTransport(cluster)
    raise ValueError(
        f"unknown shuffle transport {name!r}; known: {SHUFFLE_TRANSPORTS}"
    )

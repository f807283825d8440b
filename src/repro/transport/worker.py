"""Remote trainer workers: the ``repro worker --join`` control plane.

The coordinator's :class:`~repro.ps.distributed.DistributedTrainer` (with
``remote_workers`` set) opens a :class:`WorkerHub`; worker processes —
possibly on other hosts — dial its control port, are assigned worker ids,
fetch their :class:`TrainSpec` payloads over the broadcast plane
(:mod:`repro.transport.broadcast` — one TCP fetch per worker id), and
then train their shards against the TCP parameter server directly.  The
control plane carries only small coordination frames:

    worker -> hub   ``join``  (capacity: how many worker ids to take)
    hub -> worker   ``assign`` (worker ids + broadcast endpoint) / ``full``
    worker -> hub   ``epoch``  (per-worker losses; then block)
    hub -> worker   ``continue``  (parent evaluated; next epoch may start)
    worker -> hub   ``done``   (per-worker client stats; then hang up)

Per-epoch synchronisation mirrors the thread backend exactly: every worker
reports its epoch loss, the parent evaluates the server parameters, and
only then does the next epoch begin — which is why BSP trajectories stay
bit-identical to local training at a fixed seed.

Control payloads are pickled (model factories and sample-source slices cross
the wire), so the hub must only be exposed to trusted cluster peers —
the same trust model as every other coordinator port.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass

from repro.proto.framing import FrameCorruptionError
from repro.transport.broadcast import BroadcastServer, fetch_payload
from repro.transport.wire import Conn, connect

__all__ = ["TrainSpec", "WorkerHub", "run_worker"]

_JOIN_RETRY_S = 0.2


@dataclass
class TrainSpec:
    """Everything one remote worker needs to train its shard.

    ``shard`` is a picklable sample-source slice.  A DFS source's slice is
    shard *paths* plus row locators, so only a DFS dataset must live on a
    filesystem the joining host can reach (the shared-dir shuffle
    transport's ``spill_dir`` contract, applied to training data); an
    in-memory source's slice carries the worker's rows themselves."""

    worker_id: int
    model_factory: object
    config: object
    shard: object
    ps_host: str
    ps_port: int


class WorkerHub:
    """Coordinator-side control plane for joining trainer workers."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        import socket

        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self.broadcast = BroadcastServer(host)
        self._lock = threading.Lock()
        self._open = threading.Event()  # start_training() arms assignment
        self._stop = threading.Event()
        self._total = 0
        self._next_id = 0
        self._conns: list[Conn] = []
        self._events: queue_mod.Queue = queue_mod.Queue()
        # Events from different groups interleave freely (a fast group's
        # final "done" can land while a slower group still owes this
        # epoch's loss) — out-of-order events are filed here and each
        # collect drains the slot it is waiting for.
        self._mailbox: dict[str, list] = {"epoch": [], "done": []}
        self._thread = threading.Thread(
            target=self._accept_loop, name="worker-hub", daemon=True
        )
        self._thread.start()

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.host, self.port

    # ---------------------------------------------------------- trainer side
    def publish_spec(self, worker_id: int, spec: TrainSpec) -> None:
        self.broadcast.publish(f"trainspec:{worker_id}", pickle.dumps(spec))

    def start_training(self, num_workers: int) -> None:
        """Open assignment: joining groups may now claim worker ids."""
        with self._lock:
            self._total = num_workers
        self._open.set()

    def collect_epoch(self, epoch: int) -> dict[int, float]:
        """Block until every worker id reported this epoch's loss."""
        return self._collect("epoch", epoch)

    def collect_done(self) -> dict[int, dict]:
        """Block until every worker id reported its final client stats."""
        return self._collect("done", None)

    def release_epoch(self) -> None:
        """Parent finished evaluating — let every group start its next
        epoch."""
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.send(b"continue")
            except OSError:
                pass  # the group died; collect() will surface the loss

    def close(self) -> None:
        self._stop.set()
        self._open.set()
        self._thread.join(timeout=5.0)
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns, self._conns = list(self._conns), []
        for conn in conns:
            conn.close()
        self.broadcast.close()

    def _collect(self, tag: str, epoch: int | None) -> dict[int, object]:
        from repro.ps.distributed import WorkerError

        got: dict[int, object] = {}
        with self._lock:
            total = self._total
        pending = self._mailbox[tag]
        while len(got) < total:
            if pending:
                kind, ids, payload = "", None, pending.pop()
            else:
                kind, ids, payload = self._events.get()
                if kind == "error":
                    raise WorkerError(f"remote workers {ids} failed:\n{payload}")
                if kind == "lost":
                    raise WorkerError(
                        f"worker group serving ids {ids} disconnected mid-training"
                    )
                if kind != tag:
                    self._mailbox[kind].append(payload)
                    continue
            if tag == "epoch":
                reported, losses = payload
                if reported != epoch:
                    raise WorkerError(
                        f"worker group {ids} reported epoch {reported}, "
                        f"expected {epoch}"
                    )
                got.update(losses)
            else:
                got.update(payload)
        return got

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
        # Coordination frames are tiny but arbitrarily spaced (a group sits
        # silent for a whole epoch of training): no socket timeout.
        sock.settimeout(None)
        conn = Conn(sock)
        ids: list[int] = []
        try:
            frame = conn.recv()
            if frame is None or frame[0] != b"join":
                conn.close()
                return
            capacity = max(1, int(pickle.loads(frame[1])))
            self._open.wait()
            if self._stop.is_set():
                conn.close()
                return
            with self._lock:
                remaining = self._total - self._next_id
                take = min(capacity, remaining)
                ids = list(range(self._next_id, self._next_id + take))
                self._next_id += take
                if ids:
                    self._conns.append(conn)
            if not ids:
                conn.send(b"full")
                conn.close()
                return
            conn.send(
                b"assign",
                pickle.dumps({"worker_ids": ids, "broadcast": self.broadcast.endpoint}),
            )
            while not self._stop.is_set():
                frame = conn.recv()
                if frame is None:
                    self._events.put(("lost", ids, None))
                    return
                kind, payload = frame
                if kind == b"epoch":
                    self._events.put(("epoch", ids, pickle.loads(payload)))
                elif kind == b"done":
                    self._events.put(("done", ids, pickle.loads(payload)))
                    return
                elif kind == b"error":
                    self._events.put(("error", ids, payload.decode()))
                    return
                else:
                    self._events.put(("error", ids, f"unknown frame {kind!r}"))
                    return
        except (OSError, FrameCorruptionError):
            if ids and not self._stop.is_set():
                self._events.put(("lost", ids, None))


def run_worker(
    host: str,
    port: int,
    capacity: int = 1,
    join_timeout_s: float = 60.0,
) -> dict[int, dict]:
    """Join a coordinator's worker hub and train the assigned shards.

    Dials ``host:port`` (retrying until the hub is up, bounded by
    ``join_timeout_s``), claims up to ``capacity`` worker ids, fetches
    their train specs over the broadcast plane and runs one trainer thread
    per id against the TCP parameter server.  Returns per-worker client
    stats ({} if the hub was already fully subscribed)."""
    from repro.core.trainer.trainer import GraphTrainer
    from repro.ps.tcp import TcpPSClient

    deadline = time.monotonic() + join_timeout_s
    while True:
        try:
            conn = connect(host, port)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(_JOIN_RETRY_S)
    clients: dict[int, TcpPSClient] = {}
    try:
        # The hub replies to ``join`` only once the trainer opens
        # assignment, and coordination frames then arrive one whole
        # training epoch apart: no socket timeout on the control channel.
        conn._sock.settimeout(None)
        kind, payload = conn.request(b"join", pickle.dumps(capacity))
        if kind == b"full":
            return {}
        if kind != b"assign":
            raise ConnectionResetError(f"hub join failed: {kind!r}")
        assignment = pickle.loads(payload)
        ids = assignment["worker_ids"]
        bhost, bport = assignment["broadcast"]
        specs = {
            w: pickle.loads(fetch_payload(bhost, bport, f"trainspec:{w}")) for w in ids
        }
        clients = {
            w: TcpPSClient(spec.ps_host, spec.ps_port, w)
            for w, spec in specs.items()
        }
        trainers = {
            w: GraphTrainer(spec.model_factory(), spec.config, ps_client=clients[w])
            for w, spec in specs.items()
        }
        epochs = specs[ids[0]].config.epochs
        for epoch in range(epochs):
            losses: dict[int, float] = {}
            errors: list[str] = []
            error_lock = threading.Lock()

            def run_one(w: int) -> None:
                try:
                    losses[w] = trainers[w].train_epoch(specs[w].shard)
                    clients[w].finish_epoch()
                except BaseException:
                    with error_lock:
                        errors.append(f"worker {w}:\n{traceback.format_exc()}")

            threads = [
                threading.Thread(target=run_one, args=(w,), name=f"agl-remote-{w}")
                for w in ids
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                text = "\n".join(errors)
                conn.send(b"error", text.encode())
                raise RuntimeError(f"remote workers failed:\n{text}")
            conn.send(b"epoch", pickle.dumps((epoch, losses)))
            if epoch + 1 < epochs:
                frame = conn.recv()
                if frame is None or frame[0] != b"continue":
                    raise ConnectionResetError("hub hung up between epochs")
        stats = {w: clients[w].stats() for w in ids}
        conn.send(b"done", pickle.dumps(stats))
        return stats
    finally:
        for client in clients.values():
            client.close()
        conn.close()

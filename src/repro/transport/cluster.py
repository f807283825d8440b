"""Cluster topology: the host roster every TCP transport binds/dials from.

A :class:`ClusterSpec` is parsed from the CLI's ``--hosts`` knob
(``"host:port,host:port,..."``).  The first entry is the *coordinator* —
the process that runs the pipeline parent, the parameter-server group, and
the worker hub; the remaining entries are peers expected to join with
``repro worker --join <coordinator>``.

Each host's base port anchors a small fixed port plan, so one ``--hosts``
roster configures every plane:

    base + 0   worker-hub control (``repro worker --join`` dials this)
    base + 1   parameter-server pulls/pushes (``TcpPSServer``)
    base + 2   shuffle peering (``ShufflePeerServer``)
    base + 3   broadcast fetches (``BroadcastServer``)

Port 0 means "ephemeral": the server binds any free port and the bound
address is what gets advertised (the single-box loopback tests run this
way, so they never collide).
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass

__all__ = ["ClusterSpec", "HostSpec", "host_tag"]


def host_tag() -> str:
    """Filesystem-safe token identifying this host — embedded in shared
    spill-session directory names so the dead-session sweep can tell its
    own sessions from a remote host's (pids are only meaningful locally).
    ``REPRO_HOST_TAG`` overrides for tests that emulate two hosts.  Without
    it the tag also names this process's pid namespace (where Linux exposes
    one), so containers that share a hostname and a temp directory never
    judge each other's pids."""
    override = os.environ.get("REPRO_HOST_TAG")
    name = override or socket.gethostname() or "localhost"
    tag = ("".join(c for c in name if c.isalnum()) or "localhost")[:32]
    if not override:
        try:
            tag += f"n{os.stat('/proc/self/ns/pid').st_ino}"
        except OSError:
            pass
    return tag


@dataclass(frozen=True)
class HostSpec:
    """One host in the roster: address + base port of its port plan."""

    host: str
    port: int

    def __post_init__(self):
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535 - 3:
            raise ValueError(f"base port must be in [0, 65532], got {self.port}")

    @property
    def control_port(self) -> int:
        return self.port

    @property
    def ps_port(self) -> int:
        return 0 if self.port == 0 else self.port + 1

    @property
    def shuffle_port(self) -> int:
        return 0 if self.port == 0 else self.port + 2

    @property
    def broadcast_port(self) -> int:
        return 0 if self.port == 0 else self.port + 3

    @classmethod
    def parse(cls, text: str) -> "HostSpec":
        host, sep, port = text.strip().rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"host spec {text!r} must be 'host:port' (e.g. 127.0.0.1:7077)"
            )
        try:
            return cls(host, int(port))
        except ValueError as exc:
            raise ValueError(f"bad port in host spec {text!r}: {exc}") from exc


@dataclass(frozen=True)
class ClusterSpec:
    """The host roster; ``hosts[0]`` is the coordinator."""

    hosts: tuple[HostSpec, ...]

    def __post_init__(self):
        if not self.hosts:
            raise ValueError("cluster needs at least one host")

    @property
    def coordinator(self) -> HostSpec:
        return self.hosts[0]

    @classmethod
    def parse(cls, text: str) -> "ClusterSpec":
        entries = [e for e in text.split(",") if e.strip()]
        if not entries:
            raise ValueError("--hosts must list at least one host:port")
        return cls(tuple(HostSpec.parse(e) for e in entries))

    @classmethod
    def loopback(cls) -> "ClusterSpec":
        """Single-host roster on ephemeral loopback ports — the default
        whenever a TCP transport is requested without ``--hosts``."""
        return cls((HostSpec("127.0.0.1", 0),))

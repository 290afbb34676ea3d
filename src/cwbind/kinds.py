"""CA kinds: the one place that says how the kinds of CA system differ.

The two protocol shapes differ in two ways only (arXiv 1308.4371): a
receiver trusts the signing key through a certificate or files the key under
the key that verified it, and the epoch secret travels wrapped or is derived
from a random value and the binding senders' sorted key set. A legacy system
runs no chip-level protocol. Each kind is one record, shared by every system,
client and chip of the kind; nothing else compares kind names. Protocol
functions are looked up on ``proto`` at call time.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType

from . import bindproto, certproto
from .wire import EmmKind


@dataclass(frozen=True)
class CaKind:
    name: str
    proto: ModuleType | None  # ``certproto`` or ``bindproto``; None on legacy
    announce: EmmKind | None  # the broadcast EMM that announces the sender key
    acts_on: frozenset[EmmKind]  # the broadcast EMM kinds its clients act on
    binds: bool  # its ECM carries the binding random value, not the control word

    @property
    def certified(self) -> bool:
        """Receivers trust the signing key through an authority certificate."""
        return self.announce == EmmKind.BROADCAST_CERT

    def __deepcopy__(self, memo) -> CaKind:
        return self  # one record per kind; a module cannot be copied anyway


CERT = CaKind("cert", certproto, EmmKind.BROADCAST_CERT,
              frozenset({EmmKind.BROADCAST_CERT, EmmKind.CRL_UPDATE}), binds=False)
BIND = CaKind("bind", bindproto, EmmKind.BROADCAST_SENDER_PK,
              frozenset({EmmKind.BROADCAST_SENDER_PK, EmmKind.PK_SET_UPDATE}), binds=True)
LEGACY = CaKind("legacy", None, None, frozenset(), binds=False)
CA_KINDS = {kind.name: kind for kind in (CERT, BIND, LEGACY)}


def ca_kind(name: str) -> CaKind:
    """The record of the kind called ``name``; ValueError for any other name."""
    if name not in CA_KINDS:
        raise ValueError(f"unknown CA kind {name!r}")
    return CA_KINDS[name]

"""Seeded scenario generators for the benchmark workloads.

Each generator turns a seed into ``.scn`` text, the only input the simulator
sees, together with the schedule the text encodes: which decoders are
authorized and which are interfered with in every epoch, which epochs re-key,
and the verdicts the report must carry. The schedule is modelled here from
the workload's own parameters, not read back from the simulator, so the
checker can judge a report without trusting the code under test.

The seed only fills the ``seed`` line. Shapes and schedules are fixed per
workload, so runs on different seeds do the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 1

# SHA-256 of each workload's report at DEFAULT_SEED. A change that alters any
# report is a behaviour change, not a speed-up.
PINNED_SHA256 = {
    "steady-simulcrypt": "dc1ab4c393a712b6da27e466f08347b51aa8d1fb5dabd1a73ec4d58df506e490",
    "churn-512": "92c6f5e0174f380cea026e8a0c8053cc029d61f491c92a731f35b6cab4aa0f17",
    "rekey-attack": "3cc8d045b0428961b286673bfc3f8e5c99c6a70ccfa35b6c774bfa1283e0763b",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    text: str
    epochs: int
    ca_kinds: tuple[str, ...]
    decoder_ids: tuple[int, ...]
    authorized: tuple[frozenset[int], ...]  # per epoch
    interfered: tuple[frozenset[int], ...]  # per epoch
    rekey_epochs: tuple[int, ...]
    verdicts: dict[str, str]


@dataclass
class _Builder:
    """Accumulates scenario lines and the matching per-epoch schedule."""

    name: str
    seed: int
    epochs: int
    lines: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    systems: list[list[int]] = field(default_factory=list)
    auth: list[set[int]] = field(default_factory=list)
    interfered: list[set[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.lines += [f"scenario {self.name}", f"seed {self.seed}", f"epochs {self.epochs}"]
        self.auth = [set() for _ in range(self.epochs)]
        self.interfered = [set() for _ in range(self.epochs)]

    def ca(self, kind: str, decoders: int) -> list[int]:
        index = len(self.systems)
        first = sum(len(ids) for ids in self.systems) + 1
        ids = list(range(first, first + decoders))
        self.kinds.append(kind)
        self.systems.append(ids)
        self.lines.append(f"ca {index} {kind}")
        self.lines += [f"decoder {d} ca {index}" for d in ids]
        return ids

    def rotate_auth(self, ca: int, every: int, count: int) -> None:
        """Window ``w`` authorizes the ``count``-wide wrap-around slice of the
        system's decoders that starts at position ``w``."""
        self.lines.append(f"rotate-auth {ca} every {every} count {count}")
        ids = self.systems[ca]
        for epoch in range(self.epochs):
            window = epoch // every
            self.auth[epoch].update(ids[(window + j) % len(ids)] for j in range(count))

    def authorize(self, ca: int, decoder: int) -> None:
        self.at(0, f"authorize {ca} {decoder}")
        for epoch in range(self.epochs):
            self.auth[epoch].add(decoder)

    def at(self, epoch: int, action: str, interferes: int | None = None,
           persistent: bool = False) -> None:
        self.lines.append(f"at {epoch} {action}")
        if interferes is not None:
            until = self.epochs if persistent else epoch + 1
            for e in range(epoch, until):
                self.interfered[e].add(interferes)

    def finish(self, why: str, rekey_epochs: tuple[int, ...],
               verdicts: dict[str, str]) -> Workload:
        return Workload(
            name=self.name,
            why=why,
            text="\n".join(self.lines) + "\n",
            epochs=self.epochs,
            ca_kinds=tuple(self.kinds),
            decoder_ids=tuple(d for ids in self.systems for d in ids),
            authorized=tuple(frozenset(s) for s in self.auth),
            interfered=tuple(frozenset(s) for s in self.interfered),
            rekey_epochs=rekey_epochs,
            verdicts=verdicts,
        )


HONEST_VERDICTS = {
    "implicit-key-auth": "pass",
    "authenticity-violations": "0",
    "authenticity": "pass",
    "recovery-success": "n/a",
    "decoders-replaced": "0",
}


def steady_simulcrypt(seed: int, epochs: int = 200, per_system: int = 8) -> Workload:
    b = _Builder("steady-simulcrypt", seed, epochs)
    for kind in ("bind", "bind", "cert", "legacy"):
        b.ca(kind, per_system)
    for ca in range(4):
        b.rotate_auth(ca, every=4, count=per_system * 5 // 8)
    return b.finish(WHY["steady-simulcrypt"], (), dict(HONEST_VERDICTS))


def churn_512(seed: int, epochs: int = 100, per_system: int = 256) -> Workload:
    b = _Builder("churn-512", seed, epochs)
    for kind in ("bind", "cert"):
        b.ca(kind, per_system)
    for ca in range(2):
        b.rotate_auth(ca, every=4, count=per_system * 5 // 8)
    return b.finish(WHY["churn-512"], (), dict(HONEST_VERDICTS))


def rekey_attack(seed: int, epochs: int = 120, per_system: int = 64) -> Workload:
    """Both protocols under re-keying and every adversary action that leaves
    the verdicts intact: compromise of everything but the chips, recovery,
    then persistent pirate and rogue-sender probes plus periodic replays and
    raw control-word injection, all aimed at unauthorized decoders."""
    if per_system < 8 or epochs < 30:
        raise ValueError("rekey-attack needs at least 8 decoders per system and 30 epochs")
    b = _Builder("rekey-attack", seed, epochs)
    bind_ids = b.ca("bind", per_system)
    cert_ids = b.ca("cert", per_system)
    authorized = per_system * 5 // 8
    probes = (per_system - authorized) // 3
    for ca, ids in enumerate((bind_ids, cert_ids)):
        for d in ids[:authorized]:
            b.authorize(ca, d)

    compromise_at, recover_at = 5, 10
    for ca, ids in enumerate((bind_ids, cert_ids)):
        b.at(compromise_at, f"compromise control-word {ids[0]}")
        b.at(compromise_at, f"compromise ca-client {ids[1]}")
        b.at(compromise_at, f"compromise sender-keys {ca}")
    b.at(compromise_at, "compromise ttp-key")
    b.at(recover_at, "recover")

    # unauthorized decoders split three ways: pirate probes, rogue senders,
    # and targets of the one-shot replays and injections
    for ca, ids in enumerate((bind_ids, cert_ids)):
        spare = ids[authorized:]
        for d in spare[:probes]:
            b.at(recover_at + 1, f"pirate-probe {d}", interferes=d, persistent=True)
        for d in spare[probes:2 * probes]:
            b.at(recover_at + 1, f"forge-sender {ca} {d}", interferes=d, persistent=True)
        targets = spare[2 * probes:]
        for epoch in range(15, epochs, 10):
            for src, dst, what in zip(ids, targets, ("chip-derive", "chip-load-ltk", "ecm")):
                b.at(epoch, f"replay {src} {dst} {what}", interferes=dst)
            b.at(epoch, f"inject-cw {targets[3 % len(targets)]}",
                 interferes=targets[3 % len(targets)])

    rotations = tuple(range(20, epochs - 1, 20))
    for epoch in rotations:
        b.at(epoch, "rotate-sender 0")
        b.at(epoch, "rotate-sender 1")
    verdicts = dict(HONEST_VERDICTS, **{"recovery-success": "pass",
                                        "decoders-replaced": str(per_system)})
    return b.finish(WHY["rekey-attack"], (recover_at,) + rotations, verdicts)


WHY = {
    "steady-simulcrypt": "4 small SimulCrypt systems (bind, bind, cert, legacy): fixed per-epoch "
                         "ECM, wrap, DERIVE and scramble cost with little EMM fan-out",
    "churn-512": "512 decoders with de-authorization every 4 epochs: EMM fan-out to every "
                 "decoder makes frame work grow as decoders x EMMs",
    "rekey-attack": "sender re-keying, recovery and adversary probes: public-key keygen, sign, "
                    "verify and PKE dominate while fan-out stays small",
}

GENERATORS = {
    "steady-simulcrypt": steady_simulcrypt,
    "churn-512": churn_512,
    "rekey-attack": rekey_attack,
}


def generate(name: str, seed: int, **size) -> Workload:
    """Build workload ``name`` for ``seed``; ``size`` shrinks it (tests, warm-up)."""
    return GENERATORS[name](seed, **size)

"""Deterministic scenario runner: authority, head-end, decoders, adversary.

A scenario is a line-oriented text file (``#`` comments, blank lines ignored)::

    scenario <name>
    seed <int>
    epochs <int>
    secret-bits <128|192|256>        # optional, default 128
    content-bytes <int>              # optional, default 64, at least 16
    ca <index> <cert|bind|legacy>    # one per CA system, indexes 0..n-1
    decoder <id> ca <index>          # one per decoder
    rotate-auth <ca> every <W> count <C>   # rotating authorized subset
    at <epoch> <action ...>

Actions, one ``ACTIONS`` entry each, with the argument shapes it checks::

    authorize <ca> <ca-decoder>      deauthorize <ca> <ca-decoder>
    enroll <ca> <ca-decoder>         swap-client <decoder>
    rotate-ttp                       rotate-sender <sender-ca>
    recover                          compromise ttp-key
    compromise control-word <decoder>    compromise ca-client <decoder>
    compromise sender-keys <sender-ca>
    tamper <class> <bit>             # class: ecm | emm-broadcast | emm-receiver
                                     #        | chip-derive | chip-load-ltk
    replay <src> <dst> <class>       # class: chip-derive | chip-load-ltk
                                     #        | emm-receiver | ecm
    inject-cw <decoder>              # one-shot raw control-word injection
    pirate-probe <decoder>           # persistent best-effort pirate injection
    forge-sender <ca> <ca-decoder>   # persistent rogue-sender message sets

Every ``<ca>`` and decoder (``<src>`` and ``<dst>`` too) must be declared;
a ``<ca-decoder>`` must be on the CA system just named, and a ``<sender-ca>``
must be one whose kind has a sender key (not legacy). Counts are exact, and a
directive line holds exactly the fields shown. Content is at least one AES
block (16 bytes), so a wrong control word reproduces it with probability at
most 2^-128. ``rotate-auth`` W, C > 0.

All decoders are provisioned, registered, and enrolled before epoch 0;
events fire before that epoch's tick. Delivery order is decoder id order.
Every draw of randomness comes from labeled children of one seed, so a
config runs to a byte-identical report every time.

Tamper actions flip a bit inside the target's protected payload (the
cryptographic rejection path); arbitrary-position flips, including headers,
are exercised by the message-level tamper harness in the test suite.

The adversary keeps the latest message of each class a scheduled ``replay``
reads: per-receiver EMMs by addressee and ECMs by CA system when a replay of
that class is scheduled, and the chip messages of each replay source (a
decoder that a scheduled ``replay`` of class ``chip-derive`` or
``chip-load-ltk`` reads from; ``run_epoch`` says when it interposes).
``compromise control-word`` models ongoing extraction from an authorized
decoder: it survives client swaps and chip replacement, because extraction
is assumed cheap and repeatable; recovery targets key material, not the
extraction capability. ``compromise`` of sender keys and the authority key
takes a snapshot: material rotated afterwards is not leaked. A forge
probe's, or a certificate pirate probe's, rogue signing key is drawn with
``keygen`` once, from its first forged set's draws. A forged load is sealed
by the protocol's own ``phase1_send`` on a throwaway sender state around the
rogue or stolen signing key (for a certificate chip, with a sender
certificate minted with the stolen authority key), and rebuilt only when the
adversary's knowledge changes: another signing key, stolen authority key or
directory. Each probed epoch still sends it with a fresh DERIVE, so the chip
runs every check. A probe's draws for an epoch come from one child of the
adversary's generator, derived only in an epoch that draws.

``recover`` performs the full restoration procedure: swap compromised
clients, rotate the authority key pair (re-issuing receiver certificates),
rotate and re-certify every sender, re-enroll and re-entitle everyone.
Certificate-protocol chips are bound to one authority generation and key and
cannot validate anything issued under the new ones, so they are replaced
(a fresh trust anchor of the new generation, counted in the report);
binding-protocol chips are untouched.

Outcome codes per decoder per epoch: ``K`` descrambled the epoch's content,
``R`` attempted or errored but did not, ``X`` no attempt (not entitled).
Verdicts are recomputed from the outcome rows: implicit key authentication
holds when no unauthorized decoder ever lands on ``K`` and every authorized
decoder whose messages were not interfered with lands on ``K``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from . import certproto, headend as hemod, ttp as ttpmod
from .decoder import (
    WORD_KINDS,
    ChipChannelMsg,
    ChipMsgKind,
    ChipState,
    Decoder,
    client_process_ecm,
    client_process_emm,
    derive_msg,
    load_cw_msg,
    make_decoder,
    process_frame,
    swap_client,
)
from .encoding import BROADCAST_ADDR, encode_id, id_as_int
from .errors import CwbindError
from .kinds import CaKind, ca_kind
from .phase1 import SenderState
from .suite import VALID_SECRET_BITS, CipherSuite, Drbg, KeyPair
from .ttp import Certificate, ROLE_SENDER
from .wire import (
    BroadcastFrame,
    Ecm,
    Emm,
    build_pk_set_body,
    ecm_size,
    emm_size,
)

CHIP_CLASSES = ("chip-derive", "chip-load-ltk")
TAMPER_CLASSES = ("ecm", "emm-broadcast", "emm-receiver") + CHIP_CLASSES
REPLAY_CLASSES = CHIP_CLASSES + ("emm-receiver", "ecm")

# each one-value directive: the ``ScenarioConfig`` field it sets, and its type
_SCALARS = {"scenario": ("name", str), "seed": ("seed", int), "epochs": ("epochs", int),
            "secret-bits": ("secret_bits", int), "content-bytes": ("content_bytes", int)}
# the fields after each directive's word; an ``at`` line is checked per action
_FIELDS = dict.fromkeys(_SCALARS, 1) | {"ca": 2, "decoder": 3, "rotate-auth": 5}

BROADCAST_ID = id_as_int(BROADCAST_ADDR)
_ROGUE_ID = encode_id(0xAD)  # the sender id on the adversary's forged sets

OUTCOME_DERIVED = "K"
OUTCOME_REJECTED = "R"
OUTCOME_EXCLUDED = "X"


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    epoch: int
    verb: str
    args: tuple[str, ...]
    line: int = field(default=0, compare=False, repr=False)  # its scenario line, if parsed


@dataclass(frozen=True)
class DecoderSpec:
    decoder_id: int
    ca_index: int


@dataclass
class ScenarioConfig:
    """A scenario as the module docstring describes it, checked when it is
    built (a ``dataclasses.replace`` copy too): a bad value raises
    ``ValueError``, naming the scenario line of a parsed event. The defaults
    below are the only ones: ``parse_scenario`` passes a directive only when
    the file has it. Each kind name is resolved once, into ``kinds``, the
    records the head-end and decoders are built from. Decoder ids stay
    integers here: the simulator encodes an id (``encode_id``) where it
    reads one, and hands only the 8-byte form to the protocol code."""

    name: str
    seed: int
    epochs: int
    ca_kinds: list[str]
    decoders: list[DecoderSpec]
    events: list[Event]
    secret_bits: int = 128
    content_bytes: int = 64
    kinds: list[CaKind] = field(init=False, repr=False, compare=False)  # one per ca_kinds name

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.secret_bits not in VALID_SECRET_BITS:
            raise ValueError(
                f"secret-bits must be one of {VALID_SECRET_BITS}, got {self.secret_bits}")
        if self.content_bytes < 16:
            raise ValueError(f"content-bytes must be at least 16, got {self.content_bytes}")
        if not self.ca_kinds:
            raise ValueError("at least one CA system is required")
        self.kinds = kinds = [ca_kind(name) for name in self.ca_kinds]
        ca_of = {spec.decoder_id: spec.ca_index for spec in self.decoders}
        if len(ca_of) != len(self.decoders):
            raise ValueError("decoder ids must be unique")
        for spec in self.decoders:
            # an id is 8 bytes on the wire, and all-ones is the broadcast address
            if not 0 <= spec.decoder_id < BROADCAST_ID:
                raise ValueError(f"decoder id {spec.decoder_id} outside 0..{BROADCAST_ID - 1}")
            if not 0 <= spec.ca_index < len(kinds):
                raise ValueError(f"decoder {spec.decoder_id} references missing ca {spec.ca_index}")
        for ev in self.events:
            try:
                if not 0 <= ev.epoch < self.epochs:
                    raise ValueError(f"event at epoch {ev.epoch} outside run")
                _check_action(ev, kinds, ca_of)
            except ValueError as exc:
                if not ev.line:
                    raise
                raise ValueError(f"scenario line {ev.line}: {exc}") from None


def _action(ev: Event) -> tuple[str, tuple[str, ...]]:
    """An event's ``ACTIONS`` key and the arguments after it."""
    if ev.verb == "compromise" and ev.args:
        return f"compromise {ev.args[0]}", ev.args[1:]
    return ev.verb, ev.args


def _check_action(ev: Event, kinds: list[CaKind], ca_of: dict[int, int]) -> None:
    """Check an event against its ``ACTIONS`` shape; ``ca_of``: decoder -> CA."""
    name, args = _action(ev)
    if name not in ACTIONS:
        raise ValueError(f"unknown action {name!r}")
    shape = ACTIONS[name][0]
    if len(args) != len(shape):
        raise ValueError(f"{name} takes {len(shape)} argument(s), got {len(args)}")
    ca = None
    for want, arg in zip(shape, args):
        if isinstance(want, tuple):
            if arg not in want:
                raise ValueError(f"{name} expects one of {', '.join(want)}, got {arg!r}")
        elif want == "int":
            int(arg)
        elif want.endswith("ca"):
            ca = int(arg)
            if not 0 <= ca < len(kinds):
                raise ValueError(f"event references unknown ca {arg}")
            if want == "sender-ca" and kinds[ca].proto is None:
                raise ValueError(f"{name}: ca {arg} is {kinds[ca].name}, with no sender key")
        elif int(arg) not in ca_of:
            raise ValueError(f"event references unknown decoder {arg}")
        elif want == "ca-decoder" and ca_of[int(arg)] != ca:
            raise ValueError(f"{name}: decoder {arg} is not on ca {ca}")


def _expand_rotate_auth(line: int, ca_index: int, every: int, count: int,
                        decoders: list[DecoderSpec], epochs: int) -> list[Event]:
    """Rotating authorized subset: at each window start, the set becomes the
    next ``count``-wide wrap-around slice of the system's decoders. ``line``
    is the ``rotate-auth`` line's number, for its errors."""
    ids = sorted(spec.decoder_id for spec in decoders if spec.ca_index == ca_index)
    if not ids:
        raise ValueError(f"scenario line {line}: rotate-auth for ca {ca_index} with no decoders")
    if count > len(ids):
        raise ValueError(f"scenario line {line}: rotate-auth count exceeds decoder population")
    events: list[Event] = []
    previous: frozenset[int] = frozenset()
    for window, epoch in enumerate(range(0, epochs, every)):
        desired = frozenset(ids[(window + j) % len(ids)] for j in range(count))
        for decoder_id in sorted(previous - desired):
            events.append(Event(epoch, "deauthorize", (str(ca_index), str(decoder_id))))
        for decoder_id in sorted(desired - previous):
            events.append(Event(epoch, "authorize", (str(ca_index), str(decoder_id))))
        previous = desired
    return events


def parse_scenario(text: str, name_hint: str = "unnamed") -> ScenarioConfig:
    scalars: dict[str, str | int] = {}
    ca_kinds: list[str] = []
    decoders: list[DecoderSpec] = []
    events: list[Event] = []
    rotate_auth: dict[int, tuple[int, int, int]] = {}  # ca -> (line, every, count)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            head = fields[0]
            if len(fields) - 1 != _FIELDS.get(head, len(fields) - 1):
                raise ValueError(f"{head} takes {_FIELDS[head]} field(s), got {len(fields) - 1}")
            if head in _SCALARS:
                key, convert = _SCALARS[head]
                if key in scalars:
                    raise ValueError(f"duplicate {head} directive")
                scalars[key] = convert(fields[1])
            elif head == "ca":
                index = int(fields[1])
                if index != len(ca_kinds):
                    raise ValueError(f"ca systems must be declared in order, got {index}")
                ca_kinds.append(ca_kind(fields[2]).name)
            elif head == "decoder":
                if fields[2] != "ca":
                    raise ValueError("expected 'decoder <id> ca <index>'")
                decoders.append(DecoderSpec(int(fields[1]), int(fields[3])))
            elif head == "rotate-auth":
                if fields[2] != "every" or fields[4] != "count":
                    raise ValueError("expected 'rotate-auth <ca> every <W> count <C>'")
                every, count = int(fields[3]), int(fields[5])
                if every <= 0 or count <= 0:
                    raise ValueError(f"rotate-auth every {every} count {count}: both must be > 0")
                if int(fields[1]) in rotate_auth:
                    raise ValueError(f"duplicate rotate-auth for ca {int(fields[1])}")
                rotate_auth[int(fields[1])] = (lineno, every, count)
            elif head == "at":
                if len(fields) < 3:
                    raise ValueError(
                        f"at takes an epoch and an action, got {len(fields) - 1} field(s)")
                events.append(Event(int(fields[1]), fields[2], tuple(fields[3:]), lineno))
            else:
                raise ValueError(f"unknown directive {head!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"scenario line {lineno}: {exc}") from None

    if "seed" not in scalars or "epochs" not in scalars:
        raise ValueError("scenario must declare both seed and epochs")
    for ca_index, (line, every, count) in rotate_auth.items():  # after every decoder is declared
        if not 0 <= ca_index < len(ca_kinds):
            raise ValueError(f"scenario line {line}: rotate-auth references unknown ca {ca_index}")
        events.extend(_expand_rotate_auth(line, ca_index, every, count, decoders,
                                          scalars["epochs"]))
    events.sort(key=lambda ev: ev.epoch)  # stable: preserves file order per epoch
    return ScenarioConfig(ca_kinds=ca_kinds, decoders=decoders, events=events,
                          **{"name": name_hint} | scalars)


def load_scenario(path) -> ScenarioConfig:
    p = Path(path)
    return parse_scenario(p.read_text(), name_hint=p.stem)


# ---------------------------------------------------------------------------
# ledger and report
# ---------------------------------------------------------------------------


@dataclass
class BandwidthLedger:
    """Byte counts per message class. Chip-channel bytes travel inside the
    decoder only and are never part of the broadcast totals."""

    ecm: int = 0
    emm_broadcast: int = 0
    emm_receiver: int = 0
    content: int = 0
    chip_channel: int = 0

    def add_frame(self, frame: BroadcastFrame) -> None:
        self.content += len(frame.scrambled_content)
        for ecm in frame.ecms:
            self.ecm += ecm_size(ecm)
        for emm in frame.emms:
            size = emm_size(emm)
            if emm.is_broadcast():
                self.emm_broadcast += size
            else:
                self.emm_receiver += size

    def broadcast_total(self) -> int:
        return self.ecm + self.emm_broadcast + self.emm_receiver + self.content


@dataclass(frozen=True, slots=True)
class EpochRow:
    """One epoch's report row over the run's decoder ids in ascending order
    (``RunReport.ids``, also the delivery order): byte ``n`` of ``outcomes``
    is the code of the ``n``-th decoder, and bit ``n`` of ``authorized`` and
    of ``interfered`` says whether that decoder is in the set.
    ``RunReport.decode`` reads a row back by id."""

    epoch: int
    authorized: int
    interfered: int
    outcomes: bytes


@dataclass
class RunReport:
    config: ScenarioConfig
    ids: tuple[int, ...]  # every decoder id, ascending: the order of a row's bytes and bits
    rows: list[EpochRow]
    ledger: BandwidthLedger
    implicit_key_auth: bool
    authenticity_violations: int
    recovery_epoch: int | None
    recovery_success: bool | None
    decoders_replaced: int

    def decode(self, row: EpochRow) -> tuple[frozenset[int], frozenset[int], dict[int, str]]:
        """A row's authorized ids, interfered ids and outcome code by id."""
        def members(mask: int) -> frozenset[int]:  # binary digits, lowest first
            return frozenset(i for i, digit in zip(self.ids, bin(mask)[:1:-1]) if digit == "1")

        return (members(row.authorized), members(row.interfered),
                dict(zip(self.ids, row.outcomes.decode())))

    def to_text(self) -> str:
        def csv(ids) -> str:
            return ",".join(str(i) for i in sorted(ids)) if ids else "-"

        config = self.config
        lines = [
            "cwbind-report 1",
            f"scenario {config.name}",
            f"seed {config.seed}",
            f"epochs {config.epochs}",
            f"secret-bits {config.secret_bits}",
        ]
        for index, kind in enumerate(config.ca_kinds):
            lines.append(f"ca {index} {kind}")
        lines.append("decoders " + " ".join(str(i) for i in self.ids))
        for row in self.rows:
            authorized, interfered, codes = self.decode(row)
            outcomes = " ".join(f"{i}={outcome}" for i, outcome in codes.items())
            lines.append(
                f"epoch {row.epoch} auth {csv(authorized)} "
                f"interfered {csv(interfered)} outcomes {outcomes}"
            )
        lines.append(f"bandwidth ecm {self.ledger.ecm}")
        lines.append(f"bandwidth emm-broadcast {self.ledger.emm_broadcast}")
        lines.append(f"bandwidth emm-receiver {self.ledger.emm_receiver}")
        lines.append(f"bandwidth content {self.ledger.content}")
        lines.append(f"bandwidth chip-channel {self.ledger.chip_channel}")
        lines.append(f"verdict implicit-key-auth {'pass' if self.implicit_key_auth else 'fail'}")
        lines.append(f"verdict authenticity-violations {self.authenticity_violations}")
        lines.append(f"verdict authenticity {'pass' if self.authenticity_violations == 0 else 'fail'}")
        if self.recovery_epoch is None:
            lines.append("verdict recovery-success n/a")
        else:
            lines.append(f"verdict recovery-success {'pass' if self.recovery_success else 'fail'}")
        lines.append(f"verdict decoders-replaced {self.decoders_replaced}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# adversary
# ---------------------------------------------------------------------------


@dataclass
class SenderSnapshot:
    """Key material taken from one CA system at sender-keys compromise time."""

    sig_keypair: KeyPair
    ltk_store: dict[bytes, bytes]
    ecm_key: bytes


@dataclass
class Probe:
    """A probed decoder: the verb, the rogue key pair once drawn, and the
    forged load last built, with its long-term key and what it was built
    from."""

    verb: str
    rogue: KeyPair | None = None
    load: list[ChipChannelMsg] = field(default_factory=list)
    ltk: bytes = b""
    basis: tuple = ()  # (signing public key, stolen authority key, directory)


@dataclass
class AdversaryState:
    rng: Drbg
    cw_taps: set[bytes] = field(default_factory=set)
    client_taps: set[bytes] = field(default_factory=set)
    sender_snapshots: dict[int, SenderSnapshot] = field(default_factory=dict)
    authority_key: tuple[int, KeyPair] | None = None  # (generation, key pair)
    known_cw: bytes | None = None
    known_rand: dict[int, bytes] = field(default_factory=dict)  # per bind ca
    # (class, decoder id), or ("ecm", CA system id): one ECM per system
    captured: dict[tuple[str, bytes | int], object] = field(default_factory=dict)
    # id -> probe: its forged load is rebuilt only when what it was built from changes
    probes: dict[bytes, Probe] = field(default_factory=dict)
    minted_serial: int = 0x7F000000
    # the replay schedule: the classes a scheduled replay reads, and the
    # decoders a chip-class replay reads from (see module docstring)
    replay_classes: frozenset[str] = frozenset()
    replay_sources: frozenset[bytes] = frozenset()

    def capture_chip_msgs(self, decoder_id: bytes, msgs: list[ChipChannelMsg]) -> None:
        for msg in msgs:
            if msg.kind in WORD_KINDS:
                self.captured[("chip-derive", decoder_id)] = msg
            elif msg.kind == ChipMsgKind.LOAD_LTK:
                self.captured[("chip-load-ltk", decoder_id)] = msg

    def capture_frame(self, frame: BroadcastFrame) -> None:
        if "emm-receiver" in self.replay_classes:
            for emm in frame.emms:
                if not emm.is_broadcast():
                    self.captured[("emm-receiver", emm.addressee)] = emm
        if "ecm" in self.replay_classes:
            for ecm in frame.ecms:
                self.captured[("ecm", ecm.ca_system_id)] = ecm


# ---------------------------------------------------------------------------
# world
# ---------------------------------------------------------------------------


@dataclass
class World:
    config: ScenarioConfig
    suite: CipherSuite
    master: Drbg
    headend: hemod.HeadendState
    decoders: dict[bytes, Decoder]
    adversary: AdversaryState
    ledger: BandwidthLedger = field(default_factory=BandwidthLedger)
    rows: list[EpochRow] = field(default_factory=list)
    recovery_epoch: int | None = None
    decoders_replaced: int = 0
    label_uses: dict[str, int] = field(default_factory=dict)  # uses per seed label
    authorized: int = 0  # the last row's authorized mask; only events change it
    # per-epoch scratch, reset each tick
    epoch_interfered: set[bytes] = field(default_factory=set)
    epoch_one_shots: list[Event] = field(default_factory=list)
    content: Drbg = field(init=False, repr=False)  # each epoch's content, read in turn
    # the decoder set and each decoder's CA system never change after build
    _ids_by_ca: dict[int, list[bytes]] = field(init=False, repr=False)
    # delivery order: (id, id as an integer, decoder), in id order
    _delivery: list[tuple[bytes, int, Decoder]] = field(init=False, repr=False)
    _position: dict[bytes, int] = field(init=False, repr=False)  # bit n: n-th delivered

    def __post_init__(self) -> None:
        self.content = self.master.child("content")
        self._ids_by_ca = {}
        self._delivery = []
        for decoder_id, decoder in sorted(self.decoders.items()):
            self._ids_by_ca.setdefault(decoder.ca_index, []).append(decoder_id)
            self._delivery.append((decoder_id, id_as_int(decoder_id), decoder))
        self._position = {decoder_id: n for n, (decoder_id, _, _) in enumerate(self._delivery)}

    def decoder_ids_by_ca(self) -> dict[int, list[bytes]]:
        """Decoder ids per CA system, in id order; shared, so read only."""
        return self._ids_by_ca

    def rotate_ttp(self) -> None:
        """Rotate the head-end's authority from the seed child of its generation."""
        generation = self.headend.ttp.generation
        hemod.rotate_authority(self.headend, self.master.child(f"ttp-rotate-{generation}"))


def build_world(config: ScenarioConfig) -> World:
    suite = CipherSuite(config.secret_bits)
    master = Drbg(hashlib.sha512(b"cwbind/scenario/" + str(config.seed).encode()).digest())
    ttp = ttpmod.ttp_init(suite, master.child("ttp"))

    decoders: dict[bytes, Decoder] = {}
    for spec in config.decoders:
        decoder_id = encode_id(spec.decoder_id)
        channel_key = master.child(f"provision-{spec.decoder_id}").read(suite.secret_bytes)
        decoder = make_decoder(
            suite, config.kinds[spec.ca_index], spec.ca_index, decoder_id,
            master.child(f"chip-{spec.decoder_id}"), channel_key,
            authority_generation=ttp.generation, authority_pk=ttp.keypair.public_key,
        )
        decoders[decoder_id] = decoder
        if decoder.chip_public_key() is not None:
            ttpmod.register_receiver(ttp, decoder_id, decoder.chip_public_key())

    headend = hemod.headend_init(suite, config.kinds, master.child("headend"), ttp)
    for decoder_id, decoder in decoders.items():  # in scenario order
        hemod.provision_receiver(headend, decoder.ca_index, decoder_id, decoder.client.channel_key)
        hemod.enroll_receiver(headend, decoder.ca_index, decoder_id)

    replays = [ev.args for ev in config.events if ev.verb == "replay"]
    adversary = AdversaryState(
        rng=master.child("adversary"), replay_classes=frozenset(cls for _, _, cls in replays),
        replay_sources=frozenset(encode_id(int(src)) for src, _, cls in replays
                                 if cls in CHIP_CLASSES))
    return World(config=config, suite=suite, master=master, headend=headend,
                 decoders=decoders, adversary=adversary)


# ---------------------------------------------------------------------------
# adversary actions
# ---------------------------------------------------------------------------


def _next_use(world: World, label: str) -> int:
    """Count one more use of a seed label; the count includes this use."""
    world.label_uses[label] = uses = world.label_uses.get(label, 0) + 1
    return uses


def _rekey_rng(world: World, label: str) -> Drbg:
    """The seed child for one sender re-key. A label used again in the same
    epoch gets a numbered variant, so every re-key draws a new key pair."""
    uses = _next_use(world, label)
    return world.master.child(label if uses == 1 else f"{label}#{uses}")


def _do_swap_client(world: World, decoder_id: bytes, enroll: bool = True) -> None:
    decoder = world.decoders[decoder_id]
    label = f"swap-{id_as_int(decoder_id)}"
    rng = world.master.child(f"{label}-{_next_use(world, label)}")
    new_key = rng.read(world.suite.secret_bytes)
    swap_client(decoder, new_key)
    ca = world.headend.ca_systems[decoder.ca_index]
    was_authorized = decoder_id in ca.authorized
    hemod.provision_receiver(world.headend, decoder.ca_index, decoder_id, new_key)
    if enroll:
        hemod.enroll_receiver(world.headend, decoder.ca_index, decoder_id)
        if was_authorized:
            hemod.authorize(world.headend, decoder.ca_index, decoder_id, True)
    world.adversary.client_taps.discard(decoder_id)


def _do_recover(world: World, epoch: int) -> None:
    """Restore every compromised component except the chips themselves."""
    # fresh clients for every compromised one; the sender re-keying pass
    # below re-enrolls and re-entitles the population of every system with
    # a sender, so only a legacy system's clients are enrolled here
    for decoder_id in sorted(world.adversary.client_taps):
        _do_swap_client(world, decoder_id,
                        enroll=world.decoders[decoder_id].client.kind.proto is None)

    world.rotate_ttp()

    # certificate chips hold the retired trust anchor; replace them
    for ca in world.headend.ca_systems:
        for decoder_id in world.decoder_ids_by_ca().get(ca.index, []) if ca.kind.certified else []:
            decoder = world.decoders[decoder_id]
            old = decoder.chip.receiver
            decoder.chip = ChipState(ca.kind, old.suite, certproto.CertReceiverState(
                old.suite, old.receiver_id, world.headend.ttp.generation,
                world.headend.ttp.keypair.public_key, old.enc_keypair))
            _do_swap_client(world, decoder_id, enroll=False)
            world.decoders_replaced += 1

    for ca in world.headend.ca_systems:
        if ca.kind.proto is not None:  # legacy systems have no sender to re-key
            hemod.rotate_sender_key(world.headend, ca.index,
                                    _rekey_rng(world, f"sender-rekey-{ca.index}-{epoch}"))
    world.recovery_epoch = epoch


def _steal_sender_keys(world: World, event: Event, ca_index: str) -> None:
    ca = world.headend.ca_systems[int(ca_index)]  # validation admits only systems with a sender
    world.adversary.sender_snapshots[ca.index] = SenderSnapshot(
        ca.sender.sig_keypair, dict(ca.sender.ltk_store), ca.ecm_key)


def _steal_ttp_key(world: World, event: Event) -> None:
    world.adversary.authority_key = (world.headend.ttp.generation, world.headend.ttp.keypair)


def _probe(world: World, event: Event, *args: str) -> None:  # the decoder comes last
    world.adversary.probes[encode_id(int(args[-1]))] = Probe(event.verb)


def _one_shot(world: World, event: Event, *args: str) -> None:  # acts in this epoch's delivery
    world.epoch_one_shots.append(event)


# action key (``compromise`` with its target) -> (argument shape in the module
# docstring's terms: "int", or a tuple of the accepted words; handler, called
# as (world, event, *args); whether it is the adversary's, for adversary_step)
ACTIONS: dict[str, tuple[tuple, Callable[..., None], bool]] = {
    "authorize": (("ca", "ca-decoder"), lambda w, ev, ca, d: hemod.authorize(
        w.headend, int(ca), encode_id(int(d)), True), False),
    "deauthorize": (("ca", "ca-decoder"), lambda w, ev, ca, d: hemod.authorize(
        w.headend, int(ca), encode_id(int(d)), False), False),
    "enroll": (("ca", "ca-decoder"), lambda w, ev, ca, d: hemod.enroll_receiver(
        w.headend, int(ca), encode_id(int(d))), False),
    "swap-client": (("decoder",), lambda w, ev, d: _do_swap_client(w, encode_id(int(d))), False),
    "rotate-ttp": ((), lambda w, ev: w.rotate_ttp(), False),
    "rotate-sender": (("sender-ca",), lambda w, ev, ca: hemod.rotate_sender_key(
        w.headend, int(ca), _rekey_rng(w, f"sender-rotate-{int(ca)}-{ev.epoch}")), False),
    "recover": ((), lambda w, ev: _do_recover(w, ev.epoch), False),
    "compromise control-word": (("decoder",), lambda w, ev, d: w.adversary.cw_taps.add(
        encode_id(int(d))), True),
    "compromise sender-keys": (("sender-ca",), _steal_sender_keys, True),
    "compromise ttp-key": ((), _steal_ttp_key, True),
    "compromise ca-client": (("decoder",), lambda w, ev, d: w.adversary.client_taps.add(
        encode_id(int(d))), True),
    "tamper": ((TAMPER_CLASSES, "int"), _one_shot, True),
    "replay": (("decoder", "decoder", REPLAY_CLASSES), _one_shot, True),
    "inject-cw": (("decoder",), _one_shot, True),
    "pirate-probe": (("decoder",), _probe, True),
    "forge-sender": (("ca", "ca-decoder"), _probe, True),
}


def adversary_step(world: World, event: Event) -> None:
    """Apply one adversary action to the world (state-changing actions act
    immediately; message-level actions are queued for this epoch's delivery)."""
    name, args = _action(event)
    ACTIONS[name][1](world, event, *args)


# ---------------------------------------------------------------------------
# pirate message construction
# ---------------------------------------------------------------------------


def _sealed_set(world: World, decoder: Decoder, probe: Probe, sig_pair: KeyPair | None,
                epoch: int, secret: bytes | None) -> list[ChipChannelMsg]:
    """A full message set under ``sig_pair``, or the probe's rogue pair
    (drawn first, on its first build): the probe's forged load, rebuilt
    when its ``basis`` differs, and a DERIVE of ``secret`` (a fresh draw
    after any build when ``None``) wrapped under the load's long-term key.

    Every draw comes from the epoch's one child ``probe-<id>-<epoch>`` of
    the adversary's generator, in that order; the child is derived only
    when a draw is made, which leaves every drawn byte as it is."""
    adv = world.adversary
    kind = decoder.chip.kind
    label = f"probe-{id_as_int(decoder.decoder_id)}-{epoch}"
    rng = None
    if sig_pair is None:
        if probe.rogue is None:
            rng = adv.rng.child(label)
            probe.rogue = world.suite.keygen("sig", rng)
        sig_pair = probe.rogue
    basis = (sig_pair.public_key, adv.authority_key if kind.certified else None,
             world.headend.directory)
    rebuild = basis != probe.basis
    if rng is None and (rebuild or not secret):
        rng = adv.rng.child(label)
    if rebuild:
        if kind.certified:
            generation, keypair = adv.authority_key
            adv.minted_serial += 1
            cert = Certificate.issue(world.suite, keypair, adv.minted_serial, _ROGUE_ID,
                                     ROLE_SENDER, sig_pair.public_key, generation)
            sender = certproto.CertSenderState(world.suite, sig_pair, sender_id=_ROGUE_ID,
                                               sender_cert=cert)
        else:
            sender = SenderState(world.suite, sig_pair)
        bundle = kind.proto.phase1_send(sender, basis[2], decoder.decoder_id, rng)
        probe.ltk = sender.ltk_store[decoder.decoder_id]
        probe.load = [ChipChannelMsg(ChipMsgKind.LOAD_LTK, bundle.to_bytes())]
        if kind.binds:
            probe.load.append(ChipChannelMsg(ChipMsgKind.PK_SET_UPDATE,
                                             build_pk_set_body((sig_pair.public_key,))))
        probe.basis = basis
    secret = secret or rng.read(world.suite.secret_bytes)
    sender_pk = sig_pair.public_key if kind.binds else None
    return probe.load + [derive_msg(world.suite, probe.ltk, epoch, secret, sender_pk)]


def _probe_msgs(world: World, decoder: Decoder, epoch: int, probe: Probe) -> list[ChipChannelMsg]:
    """Best-effort pirate message set for one decoder, from current knowledge."""
    adv = world.adversary
    kind = decoder.chip.kind
    if kind.proto is not None and probe.verb == "forge-sender":
        # rogue sender with its own keys: full message set, own randomness;
        # a certificate chip's set needs the stolen authority key
        if kind.certified and adv.authority_key is None:
            return []
        return _sealed_set(world, decoder, probe, None, epoch,
                           adv.known_cw if kind.certified else None)

    # pirate probe: use whatever was compromised
    snapshot = adv.sender_snapshots.get(decoder.ca_index)
    if kind.certified:
        if adv.authority_key is not None and adv.known_cw is not None:
            return _sealed_set(world, decoder, probe, None, epoch, adv.known_cw)
        if snapshot is not None and adv.known_cw is not None:
            stolen_ltk = snapshot.ltk_store.get(decoder.decoder_id)
            if stolen_ltk is not None:
                return [derive_msg(world.suite, stolen_ltk, epoch, adv.known_cw, None)]
    elif kind.proto is not None and snapshot is not None:  # a binding chip
        return _sealed_set(world, decoder, probe, snapshot.sig_keypair, epoch,
                           adv.known_rand.get(decoder.ca_index))
    # a legacy chip, or nothing better known: the raw control word
    return [] if adv.known_cw is None else [load_cw_msg(epoch, adv.known_cw)]


# ---------------------------------------------------------------------------
# message-level interference
# ---------------------------------------------------------------------------


def _flip_payload_bit(payload: bytes, bit: int) -> bytes:
    bit %= len(payload) * 8
    out = bytearray(payload)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _tamper_frame(world: World, frame: BroadcastFrame, event: Event) -> BroadcastFrame:
    target, bit = event.args[0], int(event.args[1])
    if target == "ecm" and frame.ecms:
        ecm = frame.ecms[0]
        tampered = Ecm(ecm.ca_system_id, ecm.epoch, _flip_payload_bit(ecm.protected_secret, bit))
        world.epoch_interfered.update(world.decoder_ids_by_ca().get(ecm.ca_system_id, []))
        return BroadcastFrame(frame.epoch, frame.scrambled_content,
                              (tampered,) + frame.ecms[1:], frame.emms)
    if target in ("emm-broadcast", "emm-receiver"):
        want_broadcast = target == "emm-broadcast"
        emms = list(frame.emms)
        for i, emm in enumerate(emms):
            if emm.is_broadcast() == want_broadcast:
                emms[i] = Emm(emm.ca_system_id, emm.kind, emm.addressee,
                              _flip_payload_bit(emm.payload, bit))
                if want_broadcast:
                    world.epoch_interfered.update(
                        world.decoder_ids_by_ca().get(emm.ca_system_id, []))
                else:
                    world.epoch_interfered.add(emm.addressee)
                break
        return BroadcastFrame(frame.epoch, frame.scrambled_content, frame.ecms, tuple(emms))
    return frame


def _chip_filter_for(world: World, decoder: Decoder, epoch: int):
    """Build the chip-channel interposition for one decoder this epoch.
    ``run_epoch`` asks for it only for a decoder the adversary may act on
    or read this epoch. The interposer captures a replay source's own chip
    messages before it alters them."""
    adv = world.adversary
    one_shots = world.epoch_one_shots
    decoder_id = decoder.decoder_id
    source = decoder_id in adv.replay_sources

    def chip_filter(msgs: list[ChipChannelMsg]) -> list[ChipChannelMsg]:
        if source:
            adv.capture_chip_msgs(decoder_id, msgs)
        out = list(msgs)

        for event in one_shots:
            if event.verb == "tamper" and event.args[0] in CHIP_CLASSES:
                wanted = (WORD_KINDS if event.args[0] == "chip-derive"
                          else (ChipMsgKind.LOAD_LTK,))
                bit = int(event.args[1])
                for i, msg in enumerate(out):
                    if msg.kind in wanted:
                        out[i] = ChipChannelMsg(msg.kind, _flip_payload_bit(msg.payload, bit))
                        world.epoch_interfered.add(decoder_id)
                        break
            elif event.verb == "replay" and encode_id(int(event.args[1])) == decoder_id:
                src = encode_id(int(event.args[0]))
                cls = event.args[2]
                captured = adv.captured.get(
                    (cls, world.decoders[src].ca_index if cls == "ecm" else src))
                world.epoch_interfered.add(decoder_id)
                try:
                    if isinstance(captured, ChipChannelMsg):
                        out.append(captured)
                    elif isinstance(captured, Emm):
                        out.extend(client_process_emm(decoder.client, captured))
                    elif isinstance(captured, Ecm):
                        replayed = client_process_ecm(decoder.client, captured)
                        if replayed is not None:
                            out.append(replayed)
                except CwbindError:  # rejected replays are the point
                    pass
            elif event.verb == "inject-cw" and encode_id(int(event.args[0])) == decoder_id:
                world.epoch_interfered.add(decoder_id)
                if adv.known_cw is not None:
                    out.append(load_cw_msg(epoch, adv.known_cw))

        probe = adv.probes.get(decoder_id)
        if probe is not None:
            injected = _probe_msgs(world, decoder, epoch, probe)
            if injected:
                out.extend(injected)
            world.epoch_interfered.add(decoder_id)
        return out

    return chip_filter


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def _update_adversary_ecm_knowledge(world: World, frame: BroadcastFrame) -> None:
    """Passive reads the adversary performs the moment a frame arrives,
    using any entitlement keys it holds (live client taps, key snapshots)."""
    adv = world.adversary
    headend = world.headend

    # ECM reading with any held entitlement keys (live client taps first)
    keys_by_ca: dict[int, list[bytes]] = {}
    for decoder_id in sorted(adv.client_taps):
        decoder = world.decoders[decoder_id]
        if decoder.client.ecm_key is not None:
            keys_by_ca.setdefault(decoder.ca_index, []).append(decoder.client.ecm_key)
    for ca_index, snapshot in adv.sender_snapshots.items():
        keys_by_ca.setdefault(ca_index, []).append(snapshot.ecm_key)

    for ecm in frame.ecms:
        for key in keys_by_ca.get(ecm.ca_system_id, []):
            try:
                secret = world.suite.sym_decrypt_shared(key, ecm.protected_secret, ecm.aad)
            except CwbindError:  # stale key, nothing learned
                continue
            ca = headend.ca_systems[ecm.ca_system_id]
            if ca.kind.binds:
                adv.known_rand[ecm.ca_system_id] = secret  # a bind system: pk_set is not empty
                adv.known_cw = world.suite.bound_secret(headend.pk_set, secret,
                                                        world.suite.secret_bits)
            else:
                adv.known_cw = secret
            break


def run_world(config: ScenarioConfig) -> tuple[RunReport, World]:
    """Build and run a world: the report, and the world as the last epoch left it."""
    world = build_world(config)
    events_by_epoch: dict[int, list[Event]] = {}
    for event in config.events:
        events_by_epoch.setdefault(event.epoch, []).append(event)
    for epoch in range(config.epochs):
        run_epoch(world, events_by_epoch.get(epoch, []), epoch)
    return _build_report(world), world


def run_epoch(world: World, events: list[Event], epoch: int) -> EpochRow:
    """Apply an epoch's events, then tick, deliver, and append and return its row.
    The epoch decides once which decoders' chip channels the adversary
    interposes on: every decoder in an epoch with a one-shot event, else
    the probed decoders and the chip-class replay sources."""
    world.epoch_interfered = set()
    world.epoch_one_shots = []
    for event in events:
        name, args = _action(event)
        _, handler, adversarial = ACTIONS[name]
        if adversarial:
            adversary_step(world, event)
        else:
            handler(world, event, *args)

    content = world.content.read(world.config.content_bytes)
    frame = hemod.epoch_tick(world.headend, content)
    for event in world.epoch_one_shots:
        if event.verb == "tamper":
            frame = _tamper_frame(world, frame, event)
    world.ledger.add_frame(frame)
    world.adversary.capture_frame(frame)
    _update_adversary_ecm_knowledge(world, frame)

    position = world._position
    if events or not world.rows:
        world.authorized = sum(1 << position[decoder_id] for ca in world.headend.ca_systems
                               for decoder_id in ca.authorized)

    adv = world.adversary
    cw_taps = adv.cw_taps
    interposed = (world.decoders if world.epoch_one_shots
                  else adv.replay_sources.union(adv.probes))
    outcomes: list[str] = []
    chip_bytes = 0
    for decoder_id, _, decoder in world._delivery:
        chip_filter = (_chip_filter_for(world, decoder, epoch)
                       if decoder_id in interposed else None)
        result = process_frame(decoder, frame, chip_filter)
        for msg in result.chip_msgs:  # a chip message encodes as u8 kind | lp(payload)
            chip_bytes += 5 + len(msg.payload)
        if result.descrambled == content:
            outcome = OUTCOME_DERIVED
        elif result.errors or result.descrambled is not None:  # refused, or a wrong word
            outcome = OUTCOME_REJECTED
        else:
            outcome = OUTCOME_EXCLUDED
        outcomes.append(outcome)
        if cw_taps and decoder_id in cw_taps and outcome == OUTCOME_DERIVED:
            # live extraction: the tap reads the word as the chip derives
            # it, in time for a probe of a later decoder this epoch
            adv.known_cw = world.headend.scrambler_key
    world.ledger.chip_channel += chip_bytes
    interfered = sum(1 << position[decoder_id] for decoder_id in world.epoch_interfered)
    row = EpochRow(epoch, world.authorized, interfered, "".join(outcomes).encode())
    world.rows.append(row)
    return row


# an outcome row's codes as binary digits, 1 for ``K``
_DERIVED_DIGITS = bytes.maketrans(b"KRX", b"100")


def compute_verdicts(rows: list[EpochRow]) -> tuple[bool, int]:
    """Recompute (implicit-key-auth, authenticity-violations) from outcome rows.

    A violation is an unauthorized decoder landing on ``K``. Implicit key
    authentication additionally requires every authorized decoder whose
    messages were untouched that epoch to land on ``K``. Each row is judged
    as bitmasks: its ``K`` codes become one mask (the leading ``0`` keeps a
    row of no decoders a valid number) to compare with its two sets.
    """
    violations = 0
    implicit = True
    for row in rows:
        derived = int(b"0" + row.outcomes.translate(_DERIVED_DIGITS)[::-1], 2)
        stray = (derived & ~row.authorized).bit_count()
        violations += stray
        implicit = implicit and not stray and not row.authorized & ~row.interfered & ~derived
    return implicit, violations


def _build_report(world: World) -> RunReport:
    implicit, violations = compute_verdicts(world.rows)
    recovery_success: bool | None = None
    if world.recovery_epoch is not None:
        # implicit key authentication already fails on any violation
        tail = [row for row in world.rows if row.epoch >= world.recovery_epoch]
        recovery_success = compute_verdicts(tail)[0]
    return RunReport(
        config=world.config,
        ids=tuple(int_id for _, int_id, _ in world._delivery),
        rows=world.rows,
        ledger=world.ledger,
        implicit_key_auth=implicit,
        authenticity_violations=violations,
        recovery_epoch=world.recovery_epoch,
        recovery_success=recovery_success,
        decoders_replaced=world.decoders_replaced,
    )

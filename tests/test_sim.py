"""Scenario runner: parsing, determinism, shipped scenarios, adversary model."""

import dataclasses
import gc
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cwbind import bindproto, certproto, sim, suite as suitemod
from cwbind.decoder import ChipChannelMsg, ChipMsgKind, derive_msg
from cwbind.encoding import BROADCAST_ADDR, encode_id
from cwbind.errors import CryptoError, CwbindError
from cwbind.kinds import BIND, CERT
from cwbind.phase1 import Bundle, SenderState
from cwbind.sim import (
    DecoderSpec,
    EpochRow,
    Event,
    ScenarioConfig,
    build_world,
    compute_verdicts,
    load_scenario,
    parse_scenario,
    run_world,
)
from cwbind.ttp import Certificate
from cwbind.wire import (
    BROADCAST_KINDS,
    BroadcastFrame,
    Emm,
    EmmKind,
    build_pk_set_body,
    decode_frame,
    emm_size,
)
from test_scramble import _count_primitives
from test_slot import _rekey_shaped

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(SCENARIO_DIR.glob("*.scn"))


MINI = """
scenario mini
seed 3
epochs 6
ca 0 bind
decoder 1 ca 0
decoder 2 ca 0
at 0 authorize 0 1
"""


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_round_trips_fields():
    config = parse_scenario(MINI)
    assert config.name == "mini"
    assert config.seed == 3 and config.epochs == 6
    assert config.ca_kinds == ["bind"]
    assert [d.decoder_id for d in config.decoders] == [1, 2]
    assert config.events == [Event(0, "authorize", ("0", "1"))]


def test_parse_errors_name_the_line():
    with pytest.raises(ValueError) as exc_info:
        parse_scenario("scenario x\nseed 1\nepochs 5\nca 0 bind\nbogus directive\n")
    assert "line 5" in str(exc_info.value)


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda c: ScenarioConfig(c.name, c.seed, 0, c.ca_kinds, c.decoders, c.events),
         "epochs must be positive"),
        (lambda c: ScenarioConfig(c.name, c.seed, c.epochs, [], c.decoders, c.events),
         "at least one CA system is required"),
        (lambda c: ScenarioConfig(c.name, c.seed, c.epochs, c.ca_kinds, c.decoders,
                                  [Event(0, "authorize", ("0", "9"))]),
         "event references unknown decoder 9"),
        (lambda c: ScenarioConfig(c.name, c.seed, c.epochs, c.ca_kinds, c.decoders,
                                  [Event(99, "authorize", ("0", "1"))]),
         "event at epoch 99 outside run"),
        (lambda c: ScenarioConfig(c.name, c.seed, c.epochs, c.ca_kinds, c.decoders,
                                  [Event(0, "sabotage", ())]),
         "unknown action 'sabotage'"),
        (lambda c: ScenarioConfig(c.name, c.seed, c.epochs, c.ca_kinds, c.decoders,
                                  [Event(0, "tamper", ("nonsense", "1"))]),
         "tamper expects one of ecm, .*, got 'nonsense'"),
        # a repeated id would merge two decoders; a missing CA would escape
        # build_world as an IndexError
        (lambda c: ScenarioConfig(c.name, c.seed, c.epochs, c.ca_kinds,
                                  c.decoders + [DecoderSpec(1, 0)], []),
         "decoder ids must be unique"),
        (lambda c: ScenarioConfig(c.name, c.seed, c.epochs, c.ca_kinds,
                                  c.decoders + [DecoderSpec(3, 1)], []),
         "decoder 3 references missing ca 1"),
    ],
    ids=[f"<lambda>{n}" for n in range(8)],  # the names pytest gives a lone lambda parameter
)
def test_invalid_configs_rejected(mutation, message):
    config = parse_scenario(MINI)
    with pytest.raises(ValueError, match=f"^{message}$"):
        mutation(config)


def test_a_copied_config_is_validated():
    # ``cli run --seed`` copies the parsed config with dataclasses.replace
    with pytest.raises(ValueError, match="^epochs must be positive$"):
        replace(parse_scenario(MINI), epochs=0)


@pytest.mark.parametrize("decoder_id", ["-1", str(2**64), str(2**64 - 1)],
                         ids=["negative", "over-8-bytes", "broadcast-address"])
def test_decoder_id_outside_the_id_space_rejected(decoder_id):
    # the first two crashed the run with a struct.error; the broadcast
    # address ran, with that decoder's own EMMs counted as broadcast
    with pytest.raises(ValueError, match="decoder id"):
        parse_scenario(MINI + f"decoder {decoder_id} ca 0\n")


@pytest.mark.parametrize("content_bytes", [0, -5, 15])
def test_content_shorter_than_one_aes_block_rejected(content_bytes):
    # with empty content any handle "descrambles" to b"", so this forged
    # bind derivation scored K every epoch (authenticity-violations 3)
    text = (MINI + "at 0 forge-sender 0 2\n").replace("epochs 6", "epochs 3")
    with pytest.raises(ValueError, match=f"content-bytes must be at least 16, got {content_bytes}"):
        parse_scenario(text + f"content-bytes {content_bytes}\n")
    report = run_world(parse_scenario(text + "content-bytes 16\n"))[0]
    assert [outcomes[2] for outcomes in _outcomes(report)] == ["R"] * 3
    assert report.authenticity_violations == 0


@pytest.mark.parametrize("bits", [0, 64, 96, 255, 512])
def test_unsupported_secret_bits_rejected_at_parse(bits):
    # 96 used to parse, and the run then failed in build_world
    message = rf"secret-bits must be one of \(128, 192, 256\), got {bits}$"
    with pytest.raises(ValueError, match=message):
        parse_scenario(MINI + f"secret-bits {bits}\n")


@pytest.mark.parametrize("every, count", [(0, 1), (-1, 1), (2, 0), (2, -2)])
def test_rotate_auth_needs_positive_window_and_count(every, count):
    # every 0 escaped as a bare range() error; a negative value authorized nobody
    with pytest.raises(ValueError, match="scenario line 9: rotate-auth every"):
        parse_scenario(MINI + f"rotate-auth 0 every {every} count {count}\n")


@pytest.mark.parametrize("line, shape", [
    ("scenario mini extra", 1), ("seed 1 2", 1), ("epochs 3 junk", 1), ("secret-bits", 1),
    ("content-bytes 32 32", 1), ("ca 0 bind extra", 2), ("decoder 1 ca 0 more", 3),
    ("decoder 1 ca", 3), ("rotate-auth 0 every 2 count 1 x", 5),
    ("at 3", "an epoch and an action"), ("at", "an epoch and an action"),
])
def test_directive_with_a_wrong_field_count_rejected(line, shape):
    # trailing words used to be dropped without a word, and an at line
    # without an action failed as a bare IndexError
    head, *rest = line.split()
    if isinstance(shape, int):
        message = rf"^scenario line 9: {head} takes {shape} field\(s\), got {len(rest)}$"
    else:
        message = rf"^scenario line 9: {head} takes {shape}, got {len(rest)} field\(s\)$"
    with pytest.raises(ValueError, match=message):
        parse_scenario(MINI + line + "\n")


@pytest.mark.parametrize("line, message", [
    ("at 1 bogus", "unknown action 'bogus'"),
    ("at 9 inject-cw 1", "event at epoch 9 outside run"),
    ("at 1 inject-cw 7", "event references unknown decoder 7"),
    ("at 1 authorize 3 1", "event references unknown ca 3"),
    ("at 1 rotate-sender 3", "event references unknown ca 3"),
    ("at 1 tamper ecm x", "invalid literal for int"),
    ("ca 1 bogus", "unknown CA kind 'bogus'"),
    ("rotate-auth 3 every 2 count 1", "rotate-auth references unknown ca 3"),
    ("ca 1 legacy\nrotate-auth 1 every 2 count 1", "rotate-auth for ca 1 with no decoders"),
    # out of order, ca 0 would take the kind declared for ca 2
    ("ca 2 cert", "ca systems must be declared in order, got 2"),
    ("decoder 2 sys 0", "expected 'decoder <id> ca <index>'"),
    ("rotate-auth 0 each 2 count 1", "expected 'rotate-auth <ca> every <W> count <C>'"),
    ("rotate-auth 0 every 2 count 4", "rotate-auth count exceeds decoder population"),
    # a one-value directive appears once, and a system has one rotate-auth
    # schedule; the repeat's line is named
    ("scenario y", "duplicate scenario directive"),
    ("seed 5", "duplicate seed directive"),
    ("epochs 4", "duplicate epochs directive"),
    ("secret-bits 128\nsecret-bits 192", "duplicate secret-bits directive"),
    ("content-bytes 32\ncontent-bytes 16", "duplicate content-bytes directive"),
    ("rotate-auth 0 every 2 count 1\nrotate-auth 0 every 3 count 1",
     "duplicate rotate-auth for ca 0"),
])
def test_event_and_ca_kind_errors_name_the_line(line, message):
    # the event checks and the rotate-auth expansion run after parsing, so
    # each parsed event and each rotate-auth line carries its line number
    lineno = 6 + line.count("\n")  # a repeat is named by its second line
    with pytest.raises(ValueError, match=f"^scenario line {lineno}: {message}"):
        parse_scenario("scenario x\nseed 1\nepochs 5\nca 0 bind\ndecoder 1 ca 0\n" + line + "\n")


def test_the_docstring_names_exactly_the_action_table():
    # the docstring's action block is the one other place an action is
    # named: each cell before a ``#`` is a key followed by its <arguments>
    block = sim.__doc__.split("checks::\n\n", 1)[1].split("\n\n", 1)[0]
    named = set()
    for line in block.splitlines():
        for cell in re.split(r"\s{2,}", line.split("#", 1)[0].strip()):
            if cell:
                named.add(cell.split(" <", 1)[0])
    assert named == set(sim.ACTIONS)


def test_quiet_epochs_build_no_chip_filter(monkeypatch):
    # no one-shot event and no probe: no decoder is interposed, and the
    # per-decoder hook is not even asked; a tamper epoch asks it for each one
    calls = []
    chip_filter_for = sim._chip_filter_for

    def counting(world, decoder, epoch):
        calls.append(epoch)
        return chip_filter_for(world, decoder, epoch)

    monkeypatch.setattr(sim, "_chip_filter_for", counting)
    quiet = run_world(parse_scenario(MINI))[0]
    assert calls == []
    tampered = run_world(parse_scenario(MINI + "at 3 tamper chip-derive 7\n"))[0]
    assert calls == [3, 3]
    assert _outcomes(quiet)[3][1] == "K" and _outcomes(tampered)[3][1] == "R"


TWO_CA = """
scenario two-ca
seed 3
epochs 4
ca 0 bind
ca 1 legacy
decoder 1 ca 0
decoder 2 ca 1
"""


@pytest.mark.parametrize("action", [
    "authorize 0",  # too few arguments: used to die with an IndexError
    "compromise",
    "replay 1 2",
    "recover now",  # too many
    "rotate-sender 0 1",
    "swap-client 1 2",
    "authorize 1 1",  # decoder 1 belongs to ca 0
    "deauthorize 0 2",
    "enroll 1 1",
    "rotate-sender 1",  # a legacy system has no sender key
    "compromise sender-keys 1",
])
def test_action_with_bad_arguments_rejected(action):
    # each of these passed or crashed validation, or raised mid-run
    with pytest.raises(ValueError):
        parse_scenario(TWO_CA + f"at 1 {action}\n")


def test_forge_sender_decoder_must_be_on_the_named_ca():
    # the CA argument was checked as any declared CA, then ignored
    with pytest.raises(ValueError,
                       match="^scenario line 9: forge-sender: decoder 1 is not on ca 1$"):
        parse_scenario(TWO_CA + "at 0 forge-sender 1 1\n")


def _cut(text: str, epochs: int = 6) -> str:
    """A scenario run over at most ``epochs`` epochs, its events rescaled."""
    total = int(next(line.split()[1] for line in text.splitlines()
                     if line.startswith("epochs ")))
    lines = []
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if fields[:1] == ["epochs"]:
            line = f"epochs {min(total, epochs)}"
        elif fields[:1] == ["at"]:
            line = " ".join(["at", str(int(fields[1]) * epochs // max(total, epochs))]
                            + fields[2:])
        lines.append(line)
    return "\n".join(lines) + "\n"


_CUT_SHIPPED = [_cut(path.read_text()) for path in SHIPPED]
# every verb with the argument count the grammar gives it, and one bogus verb
_ARITY = {"authorize": 2, "deauthorize": 2, "enroll": 2, "swap-client": 1, "rotate-ttp": 0,
          "rotate-sender": 1, "recover": 0, "compromise": 2, "tamper": 2, "replay": 3,
          "inject-cw": 1, "pirate-probe": 1, "forge-sender": 2, "sabotage": 1}
_WORDS = ["control-word", "sender-keys", "ttp-key", "ca-client", "ecm", "emm-broadcast",
          "emm-receiver", "chip-derive", "chip-load-ltk"]
_arg = st.integers(0, 8).map(str) | st.sampled_from(_WORDS)
# the verb's own count is drawn more often than the others, or few lines validate
_action = st.sampled_from(sorted(_ARITY)).flatmap(lambda verb: st.tuples(
    st.integers(0, 5), st.just(verb),
    st.sampled_from([_ARITY[verb]] * 3 + [0, 1, 2, 3]).flatmap(
        lambda n: st.lists(_arg, min_size=n, max_size=n))))


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(_CUT_SHIPPED), candidates=st.lists(_action, min_size=1, max_size=6))
def test_mutated_scenarios_are_rejected_or_run(base, candidates):
    # a shipped scenario cut to 6 epochs; each random action line either
    # fails validation with a ValueError (nothing else) or joins it, up to
    # three lines, and the scenario they make runs to the end
    text, added = base, 0
    for epoch, verb, args in candidates:
        line = f"at {epoch} {verb} {' '.join(args)}\n"
        try:
            parse_scenario(text + line)
        except ValueError:
            continue
        text, added = text + line, added + 1
        if added == 3:
            break
    if added:
        run_world(parse_scenario(text))


def test_two_sender_rotations_in_one_epoch_draw_two_key_pairs():
    # both re-keys used to draw from one seed label: the authority refused to
    # certify the repeated key mid-run, and a binding sender kept its key
    for kind in ("cert", "bind"):
        text = TWO_CA.replace("ca 0 bind", f"ca 0 {kind}") + "at 1 rotate-sender 0\n"
        _, once = run_world(parse_scenario(text))
        _, twice = run_world(parse_scenario(text + "at 1 rotate-sender 0\n"))
        first = once.headend.ca_systems[0].sender.sig_keypair.public_key
        assert twice.headend.ca_systems[0].sender.sig_keypair.public_key != first


def test_rotate_auth_expansion_changes_set_each_window():
    text = MINI.replace("at 0 authorize 0 1", "rotate-auth 0 every 2 count 1")
    config = parse_scenario(text)
    report = run_world(config)[0]
    sets = [report.decode(row)[0] for row in report.rows]
    assert sets[0] != sets[2] != sets[4]
    assert all(len(s) == 1 for s in sets)


# ---------------------------------------------------------------------------
# determinism and outcomes
# ---------------------------------------------------------------------------


def test_identical_config_identical_report_bytes():
    a = run_world(parse_scenario(MINI))[0].to_text()
    b = run_world(parse_scenario(MINI))[0].to_text()
    assert a == b


def test_different_seed_different_transcript():
    a = run_world(parse_scenario(MINI))[0]
    b = run_world(parse_scenario(MINI.replace("seed 3", "seed 4")))[0]
    assert a.to_text() != b.to_text()  # ledger bytes match, content differs
    assert _outcomes(a)[0] == _outcomes(b)[0] == {1: "K", 2: "X"}


def test_outcome_codes_follow_authorization():
    report = run_world(parse_scenario(MINI))[0]
    for outcomes in _outcomes(report):
        assert outcomes[1] == "K"
        assert outcomes[2] == "X"


def test_a_run_with_no_decoders_reports_empty_rows_and_passes():
    report = run_world(parse_scenario("scenario empty\nseed 1\nepochs 3\nca 0 bind\n"))[0]
    assert report.ids == () and [row.outcomes for row in report.rows] == [b""] * 3
    assert compute_verdicts(report.rows) == (True, 0)
    assert report.to_text() == "".join(line + "\n" for line in [
        "cwbind-report 1", "scenario empty", "seed 1", "epochs 3", "secret-bits 128",
        "ca 0 bind", "decoders ",
        "epoch 0 auth - interfered - outcomes ",
        "epoch 1 auth - interfered - outcomes ",
        "epoch 2 auth - interfered - outcomes ",
        "bandwidth ecm 171", "bandwidth emm-broadcast 78", "bandwidth emm-receiver 0",
        "bandwidth content 192", "bandwidth chip-channel 0",
        "verdict implicit-key-auth pass", "verdict authenticity-violations 0",
        "verdict authenticity pass", "verdict recovery-success n/a",
        "verdict decoders-replaced 0"])


def test_verdicts_recomputable_from_rows():
    report = run_world(parse_scenario(MINI))[0]
    implicit, violations = compute_verdicts(report.rows)
    assert implicit == report.implicit_key_auth
    assert violations == report.authenticity_violations


def _outcomes(report):
    """Each row's outcome code by decoder id."""
    return [report.decode(row)[2] for row in report.rows]


def _row(epoch, ids, authorized, interfered, outcomes):
    """The ``EpochRow`` of these plain parts over ``ids`` in ascending order:
    byte and bit ``n`` stand for ``ids[n]``."""
    def mask(members):
        return sum(1 << n for n, decoder_id in enumerate(ids) if decoder_id in members)

    codes = "".join(outcomes[decoder_id] for decoder_id in ids).encode()
    return EpochRow(epoch, mask(authorized), mask(interfered), codes)


def _verdicts_by_decoder(plain_rows):
    """``compute_verdicts`` as a loop over each decoder of each row, on rows
    read as (authorized ids, interfered ids, outcome code by id)."""
    violations = 0
    implicit = True
    for authorized, interfered, outcomes in plain_rows:
        for decoder_id, outcome in outcomes.items():
            if outcome == "K" and decoder_id not in authorized:
                violations += 1
                implicit = False
            if decoder_id in authorized and decoder_id not in interfered and outcome != "K":
                implicit = False
    return implicit, violations


@st.composite
def _plain_rows(draw):
    ids = sorted(draw(st.lists(st.integers(0, 2**64 - 2), max_size=6, unique=True)))
    subset = st.frozensets(st.sampled_from(ids)) if ids else st.just(frozenset())
    rows = [(draw(subset), draw(subset), {i: draw(st.sampled_from("KRX")) for i in ids})
            for _ in range(draw(st.integers(0, 8)))]
    return ids, rows


@given(_plain_rows(), st.integers(0, 8))
def test_verdicts_by_set_algebra_match_the_per_decoder_loop(drawn, recovery_epoch):
    ids, plain = drawn
    rows = [_row(epoch, ids, *parts) for epoch, parts in enumerate(plain)]
    assert compute_verdicts(rows) == _verdicts_by_decoder(plain)
    tail = slice(recovery_epoch, None)
    assert compute_verdicts(rows[tail]) == _verdicts_by_decoder(plain[tail])


def test_authorized_column_is_rebuilt_only_after_events(monkeypatch):
    # every row matches the head-end's set at the tick; an event-free epoch
    # cannot change authorization, so its row keeps the previous row's mask
    at_tick = []
    tick = sim.hemod.epoch_tick

    def recording_tick(headend, content):
        at_tick.append({int.from_bytes(rid, "big")
                        for ca in headend.ca_systems for rid in ca.authorized})
        return tick(headend, content)

    monkeypatch.setattr(sim.hemod, "epoch_tick", recording_tick)
    report = run_world(load_scenario(SCENARIO_DIR / "multi-ca.scn"))[0]
    assert [report.decode(row)[0] for row in report.rows] == at_tick
    # masks of decoders 8 and 9 are above 256, so no two equal ones are one
    # object unless the row kept it
    rows = run_world(parse_scenario("scenario quiet\nseed 2\nepochs 6\nca 0 bind\n" + "".join(
        f"decoder {i} ca 0\n" for i in range(10)) + "at 0 authorize 0 9\nat 3 authorize 0 8\n"))[0].rows
    for epoch in (1, 2, 4, 5):
        assert rows[epoch].authorized is rows[epoch - 1].authorized
    assert [row.authorized for row in rows] == [1 << 9] * 3 + [3 << 8] * 3


PROBED = """
scenario probed-rows
seed 6
epochs 16
ca 0 bind
ca 1 cert
decoder 1001 ca 0
decoder 1002 ca 0
decoder 1003 ca 0
decoder 1004 ca 0
decoder 1005 ca 1
decoder 1006 ca 1
decoder 1007 ca 1
decoder 1008 ca 1
at 0 authorize 0 1001
at 0 authorize 0 1002
at 0 authorize 1 1005
at 0 authorize 1 1006
at 3 compromise control-word 1001
at 3 compromise ttp-key
at 3 compromise sender-keys 0
at 3 compromise sender-keys 1
at 4 pirate-probe 1003
at 4 pirate-probe 1007
at 6 tamper ecm 5
at 7 tamper emm-receiver 3
at 8 deauthorize 0 1002
at 9 recover
at 12 forge-sender 0 1004
"""


def test_verdicts_on_compact_rows_match_the_per_decoder_loop():
    report, world = run_world(parse_scenario(PROBED))
    rows = report.rows
    assert report.ids == tuple(sorted(spec.decoder_id for spec in world.config.decoders))
    plain = [report.decode(row) for row in rows]
    # the rows are the plain parts laid out over the report's ids
    assert [_row(row.epoch, report.ids, *parts) for row, parts in zip(rows, plain)] == rows
    assert report.authenticity_violations > 0  # probes land during the compromise
    assert world.recovery_epoch == 9
    for start in range(len(rows)):  # the whole run, the recovery tail and every other tail
        assert compute_verdicts(rows[start:]) == _verdicts_by_decoder(plain[start:])
    assert compute_verdicts(rows) == (report.implicit_key_auth, report.authenticity_violations)
    # the run exercises every code and a changing interfered column
    assert {code for _, _, outcomes in plain for code in outcomes.values()} == set("KRX")
    assert len({interfered for _, interfered, _ in plain}) > 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[1].outcomes = b""


CHURN_ROWS = "\n".join(
    ["scenario churn-rows", "seed 8", "epochs 40", "ca 0 bind", "ca 1 cert",
     "rotate-auth 0 every 4 count 40", "rotate-auth 1 every 4 count 40"]
    + [f"decoder {i} ca {i // 64}" for i in range(128)]) + "\n"


def test_row_storage_is_a_few_bytes_per_decoder_per_distinct_row():
    # a dict of outcomes and two frozensets per row took ~100 B per decoder
    # here; one code byte per decoder and two bitmasks take a few, with no
    # row sharing another's parts
    config = parse_scenario(CHURN_ROWS)
    gc.collect()
    tracemalloc.start()
    try:
        rows = run_world(config)[0].rows
        count = len(rows)
        gc.collect()
        with_rows = tracemalloc.get_traced_memory()[0]
        rows.clear()
        gc.collect()
        freed = with_rows - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count == config.epochs
    assert 0 < freed / count / len(config.decoders) < 8


@pytest.mark.parametrize("scheduled", [(), ("chip-derive",), ("emm-receiver",), ("ecm",),
                                       ("chip-load-ltk", "emm-receiver", "ecm")])
def test_frame_messages_are_captured_only_for_a_scheduled_replay(scheduled, monkeypatch):
    text = MINI + "at 0 authorize 0 2\nat 2 rotate-sender 0\n" + "".join(
        f"at 4 replay 1 2 {cls}\n" for cls in scheduled)
    report, world = run_world(parse_scenario(text))
    captured = world.adversary.captured
    assert {cls for cls, _ in captured} - set(sim.CHIP_CLASSES) == set(scheduled) - set(
        sim.CHIP_CLASSES)
    # capturing every frame message, as every run once did, changes no report
    build = sim.build_world

    def capturing_everything(config):
        world = build(config)
        world.adversary.replay_classes = frozenset(sim.REPLAY_CLASSES)
        return world

    monkeypatch.setattr(sim, "build_world", capturing_everything)
    everything_report, everything = run_world(parse_scenario(text))
    assert everything_report.to_text() == report.to_text()
    assert {"emm-receiver", "ecm"} <= {cls for cls, _ in everything.adversary.captured}
    assert captured == {key: msg for key, msg in everything.adversary.captured.items()
                        if key[0] in scheduled or key[0] in sim.CHIP_CLASSES}


def test_frame_capture_decodes_and_is_stable(frames):
    config = parse_scenario(MINI)
    run_world(config)
    run_world(config)
    assert len(frames) == 2 * config.epochs
    assert frames[:config.epochs] == frames[config.epochs:]
    for epoch, blob in enumerate(frames[:config.epochs]):
        frame = decode_frame(blob)
        assert frame.epoch == epoch


# ---------------------------------------------------------------------------
# shipped scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_scenario_matches_expected_report(path):
    report = run_world(load_scenario(path))[0]
    expected = (SCENARIO_DIR / "expected" / f"{path.stem}.report").read_text()
    assert report.to_text() == expected


@pytest.mark.parametrize("bits", [192, 256])
@pytest.mark.parametrize("stem", ["multi-ca", "recovery-bind", "recovery-cert"])
def test_wider_secrets_keep_the_shipped_outcomes_and_verdicts(stem, bits):
    # PKE wraps under a 32-byte key at every size, so at 192 bits a wrap
    # through the length-checked sym_encrypt would fail every enrollment here
    # and test_suite's round-trip property at each size
    config = replace(load_scenario(SCENARIO_DIR / f"{stem}.scn"), secret_bits=bits)
    lines = run_world(config)[0].to_text().splitlines()
    expected = (SCENARIO_DIR / "expected" / f"{stem}.report").read_text().splitlines()

    def outcomes_and_verdicts(text_lines):
        return [line for line in text_lines if line.startswith(("epoch ", "verdict "))]

    assert f"secret-bits {bits}" in lines
    assert outcomes_and_verdicts(lines) == outcomes_and_verdicts(expected)


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_uninterposed_decoders_are_captured_as_if_interposed(path, monkeypatch):
    # the adversary keeps exactly the replay sources' chip messages, and the
    # ones it keeps are those an interposer on every decoder in every epoch sees
    config = load_scenario(path)
    report, world = run_world(config)
    sources = {encode_id(int(ev.args[0])) for ev in config.events
               if ev.verb == "replay" and ev.args[2] in ("chip-derive", "chip-load-ltk")}
    assert world.adversary.replay_sources == sources

    everyone = sim.AdversaryState(rng=None)
    process_frame = sim.process_frame

    def interposed(decoder, frame, chip_filter=None):
        def capture_all(msgs):
            everyone.capture_chip_msgs(decoder.decoder_id, msgs)
            return list(msgs) if chip_filter is None else chip_filter(msgs)
        return process_frame(decoder, frame, chip_filter=capture_all)

    monkeypatch.setattr(sim, "process_frame", interposed)
    interposed_report, interposed_world = run_world(config)
    assert report.to_text() == interposed_report.to_text()
    assert world.adversary.captured == interposed_world.adversary.captured
    chip = {key: msg for key, msg in world.adversary.captured.items()
            if key[0] in ("chip-derive", "chip-load-ltk")}
    assert chip == {key: msg for key, msg in everyone.captured.items() if key[1] in sources}
    assert {decoder_id for _, decoder_id in chip} == sources
    assert {cls for cls, _ in chip} == ({"chip-derive", "chip-load-ltk"} if sources else set())


ROTATE_TTP = """
scenario rotate-ttp
seed 3
epochs 8
ca 0 bind
ca 1 cert
decoder 1 ca 0
decoder 2 ca 0
decoder 3 ca 1
decoder 4 ca 1
at 0 authorize 0 1
at 0 authorize 0 2
at 0 authorize 1 3
at 0 authorize 1 4
at 2 rotate-ttp
at 4 rotate-sender 0
at 4 rotate-sender 1
"""


def test_rotate_ttp_strands_certificate_chips_at_the_next_sender_rotation():
    # the authority rotates outside ``recover``: nothing changes until the
    # certificate sender re-keys under the new authority key, which the
    # certificate chips' installed anchor cannot verify; binding chips never
    # consult the authority
    report, world = run_world(parse_scenario(ROTATE_TTP))
    for epoch, outcomes in enumerate(_outcomes(report)):
        expected = "K" if epoch < 4 else "R"
        assert outcomes == {1: "K", 2: "K", 3: expected, 4: expected}, epoch
    assert report.authenticity_violations == 0
    assert report.decoders_replaced == 0
    assert world.headend.ttp.generation == world.headend.directory.generation == 2


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_run_epoch_steps_a_built_world_to_the_shipped_rows(path):
    # everything one epoch hands the next lives on the world
    config = load_scenario(path)
    world = build_world(config)
    for epoch in range(config.epochs):
        row = sim.run_epoch(world, [ev for ev in config.events if ev.epoch == epoch], epoch)
        assert row is world.rows[-1]
    assert world.rows == run_world(config)[0].rows


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_scenario_key_authentication(path):
    report = run_world(load_scenario(path))[0]
    assert report.implicit_key_auth
    assert report.authenticity_violations == 0


# ---------------------------------------------------------------------------
# adversary model details
# ---------------------------------------------------------------------------


def test_ecm_tamper_rejects_all_compliant_decoders_that_epoch():
    text = MINI + "at 0 authorize 0 2\nat 3 tamper ecm 5\n"
    report = run_world(parse_scenario(text))[0]
    assert _outcomes(report)[3:5] == [{1: "R", 2: "R"}, {1: "K", 2: "K"}]  # one-shot only


def test_replay_closure_every_class_every_other_decoder(monkeypatch):
    # capture everything from decoder 1, replay at decoder 2, every class
    lines = [MINI, "at 0 authorize 0 2\n"]
    classes = ("chip-derive", "chip-load-ltk", "emm-receiver", "ecm")
    for i, cls in enumerate(classes):
        lines.append(f"at {i + 1} replay 1 2 {cls}\n")
    # what the adversary holds as each replay epoch starts: decoder 1 is
    # delivered before decoder 2, so a capture first made in the replay
    # epoch itself would still find its way to the replay
    held: dict[str, set] = {}
    step = sim.adversary_step

    def recording_step(world, event):
        if event.verb == "replay":
            held[event.args[2]] = set(world.adversary.captured)
        return step(world, event)

    monkeypatch.setattr(sim, "adversary_step", recording_step)
    report = run_world(parse_scenario("".join(lines)))[0]
    for cls in ("chip-derive", "chip-load-ltk"):
        assert (cls, encode_id(1)) in held[cls]
    _, violations = compute_verdicts(report.rows)
    assert violations == 0
    # decoder 2 is authorized and still derives its own word every epoch;
    # replays never produce an unauthorized derivation anywhere
    for outcomes in _outcomes(report):
        assert outcomes[2] in ("K", "R")


def test_replayed_ecm_is_the_source_systems_latest_and_filed_once_per_system(monkeypatch):
    text = """
scenario ecm-replay
seed 9
epochs 5
ca 0 bind
ca 1 cert
decoder 1 ca 0
decoder 2 ca 0
decoder 3 ca 1
at 0 authorize 0 1
at 0 authorize 0 2
at 0 authorize 1 3
at 2 replay 1 2 ecm
at 3 replay 3 1 ecm
"""
    frames, replayed = [], []
    tick, process_ecm = sim.hemod.epoch_tick, sim.client_process_ecm

    def recording_tick(headend, content):
        frames.append(tick(headend, content))
        return frames[-1]

    def recording_process_ecm(client, ecm):  # sim calls it only to replay
        replayed.append((frames[-1].epoch, client.receiver_id, ecm))
        return process_ecm(client, ecm)

    monkeypatch.setattr(sim.hemod, "epoch_tick", recording_tick)
    monkeypatch.setattr(sim, "client_process_ecm", recording_process_ecm)
    report, world = run_world(parse_scenario(text))
    assert replayed == [(2, encode_id(2), frames[2].ecms[0]),
                        (3, encode_id(1), frames[3].ecms[1])]
    assert report.authenticity_violations == 0
    assert _outcomes(report)[2][2] == "K"  # the replay repeats its own system's ECM
    ecm_keys = [key for cls, key in world.adversary.captured if cls == "ecm"]
    assert sorted(ecm_keys) == [0, 1]
    assert world.adversary.captured[("ecm", 1)] is frames[-1].ecms[1]


def test_compromised_control_word_alone_gains_nothing():
    text = MINI + "at 1 compromise control-word 1\nat 2 inject-cw 2\nat 3 pirate-probe 2\n"
    report = run_world(parse_scenario(text))[0]
    for outcomes in _outcomes(report):
        assert outcomes[2] != "K"
    assert report.authenticity_violations == 0


def test_window_piracy_and_recovery_contrast():
    # during a full compromise, pirate injection works against both protocol
    # families (the adversary holds live keys); recovery ends it, replacing
    # decoders only in the certificate world
    template = """
scenario window-{kind}
seed 5
epochs 16
ca 0 {kind}
decoder 1 ca 0
decoder 2 ca 0
at 0 authorize 0 1
at 4 compromise control-word 1
at 4 compromise ttp-key
at 4 compromise sender-keys 0
at 4 compromise ca-client 1
at 5 pirate-probe 2
at 10 recover
"""
    for kind, expected_replaced in (("bind", 0), ("cert", 2)):
        report, world = run_world(parse_scenario(template.format(kind=kind)))
        codes = [outcomes[2] for outcomes in _outcomes(report)]
        window, post = codes[5:10], codes[10:]
        assert "K" in window, kind  # the breach is real while keys are live
        assert all(code != "K" for code in post), kind
        assert report.recovery_success
        assert report.decoders_replaced == expected_replaced
        assert report.authenticity_violations == window.count("K")


def test_recovery_keeps_bind_chips_identical_objects():
    text = """
scenario keep-chips
seed 6
epochs 10
ca 0 bind
decoder 1 ca 0
decoder 2 ca 0
at 0 authorize 0 1
at 3 compromise ttp-key
at 3 compromise sender-keys 0
at 5 recover
"""
    config = parse_scenario(text)
    report, world = run_world(config)
    for decoder in world.decoders.values():
        assert decoder.chip.kind is BIND
    assert report.decoders_replaced == 0
    assert all(outcomes[1] == "K" for outcomes in _outcomes(report))


def test_recovery_replaces_cert_chips_with_new_anchor():
    text = """
scenario replace-chips
seed 6
epochs 10
ca 0 cert
decoder 1 ca 0
decoder 2 ca 0
at 0 authorize 0 1
at 3 compromise ttp-key
at 5 recover
"""
    report, world = run_world(parse_scenario(text))
    assert report.decoders_replaced == 2
    for decoder in world.decoders.values():
        assert decoder.chip.kind is CERT
        assert decoder.chip.receiver.authority_pk == world.headend.ttp.keypair.public_key
        assert decoder.chip.receiver.authority_generation == world.headend.ttp.generation == 2
    assert all(outcomes[1] == "K" for outcomes in _outcomes(report)[5:])


class _CountingVerifier:
    """Stand-in for ``Ed25519PublicKey`` that counts verifications by outcome."""

    real = suitemod.Ed25519PublicKey
    outcomes: Counter = Counter()

    def __init__(self, key):
        self._key = key

    @classmethod
    def from_public_bytes(cls, data):
        return cls(cls.real.from_public_bytes(data))

    def verify(self, signature, message):
        try:
            self._key.verify(signature, message)
        except InvalidSignature:
            type(self).outcomes["fail"] += 1
            raise
        type(self).outcomes["pass"] += 1


def test_replaced_cert_chips_refuse_retired_key_certificates_without_verifying(monkeypatch):
    # after recovery the adversary holds sender certificates minted with
    # the retired authority key and re-sends them every epoch; the replaced
    # chips refuse every one on its generation, so no verification fails
    # anywhere in the run
    text = "\n".join(
        ["scenario retired-anchor", "seed 12", "epochs 12", "ca 0 cert", "ca 1 bind"]
        + [f"decoder {i} ca {i // 6}" for i in range(12)]
        + [f"at 0 authorize {i // 6} {i}" for i in (0, 1, 2, 6, 7, 8)]
        + ["at 3 compromise control-word 0", "at 3 compromise ttp-key",
           "at 3 compromise sender-keys 0", "at 3 compromise sender-keys 1", "at 5 recover",
           "at 6 pirate-probe 4", "at 6 forge-sender 0 5", "at 6 forge-sender 1 11",
           "at 6 pirate-probe 10"]) + "\n"
    monkeypatch.setattr(suitemod, "Ed25519PublicKey", _CountingVerifier)
    monkeypatch.setattr(_CountingVerifier, "outcomes", Counter())
    refused = Counter()
    real_receive = certproto.phase1_receive

    def counting_receive(recv, bundle):
        try:
            real_receive(recv, bundle)
        except CwbindError as exc:
            refused[str(exc)] += 1
            raise

    monkeypatch.setattr(certproto, "phase1_receive", counting_receive)
    report, world = run_world(parse_scenario(text))
    assert report.implicit_key_auth and report.recovery_success
    assert report.authenticity_violations == 0 and report.decoders_replaced == 6
    # two probed cert decoders, six epochs each: each probe mints one
    # certificate, on its first epoch, and every epoch's copy is refused
    assert refused == {"sender certificate is not of the installed authority generation": 12}
    assert world.adversary.minted_serial == 0x7F000000 + 2
    # the probes still inject a full forged set into the unentitled cert
    # decoders every epoch (``X`` would mean nothing was delivered), and
    # each is refused
    assert [outcomes[d] for outcomes in _outcomes(report)[6:12] for d in (4, 5)] == ["R"] * 12
    assert _CountingVerifier.outcomes["pass"] > 0
    assert _CountingVerifier.outcomes["fail"] == 0


def test_every_signature_key_pair_comes_from_keygen(monkeypatch):
    # the authority, every sender and the adversary's forged signers draw
    # self-tested keys; the adversary's come from its probe draws, once per
    # forge probe and once per certificate pirate probe
    text = "\n".join(
        ["scenario probe-keys", "seed 21", "epochs 8", "ca 0 cert", "ca 1 bind"]
        + [f"decoder {i} ca {i // 6}" for i in range(12)]
        + [f"at 0 authorize {i // 6} {i}" for i in (0, 1, 6, 7)]
        + ["at 2 compromise control-word 0", "at 2 compromise ttp-key",
           "at 2 compromise sender-keys 1", "at 3 pirate-probe 4", "at 3 forge-sender 0 5",
           "at 3 pirate-probe 10", "at 3 forge-sender 1 11", "at 5 recover"]) + "\n"
    sig_keygens: list[tuple[str, str, int | None]] = []
    pairs: list[str] = []
    real_keygen, real_pair = suitemod.CipherSuite.keygen, suitemod._pair

    def recording_keygen(self, purpose, rng):
        caller = sys._getframe(1)
        if purpose == "sig":
            sig_keygens.append((caller.f_globals["__name__"], caller.f_code.co_name,
                                caller.f_locals.get("epoch")))
        return real_keygen(self, purpose, rng)

    def recording_pair(private_cls, private_key):
        if private_cls is suitemod.Ed25519PrivateKey:
            pairs.append(sys._getframe(1).f_code.co_name)
        return real_pair(private_cls, private_key)

    monkeypatch.setattr(suitemod.CipherSuite, "keygen", recording_keygen)
    monkeypatch.setattr(suitemod, "_pair", recording_pair)
    assert run_world(parse_scenario(text))[0].recovery_success
    assert pairs == ["keygen"] * 9  # no signing pair is built any other way
    honest = [(module, func) for module, func, _ in sig_keygens if module != "cwbind.sim"]
    assert {module for module, _ in honest} <= {"cwbind.ttp", "cwbind.certproto",
                                                "cwbind.bindproto"}
    # the authority and two senders at setup, all three again at recover
    assert len(honest) == 6
    # forge on both kinds plus the certificate pirate probe, each on its
    # first epoch (3) only
    assert [entry for entry in sig_keygens if entry[0] == "cwbind.sim"] == [
        ("cwbind.sim", "_sealed_set", 3)] * 3


# a certificate pirate probe (2), a certificate forge probe (3), a binding
# pirate probe (6) and a binding forge probe (7), all from epoch 2, while
# the adversary's knowledge changes at epochs 6, 8 and 10
PROBE_WORLD = "\n".join(
    ["scenario probe-loads", "seed 5", "epochs 12", "ca 0 cert", "ca 1 bind"]
    + [f"decoder {i} ca {i // 4}" for i in range(8)]
    + ["at 0 authorize 0 0", "at 0 authorize 1 4", "at 1 compromise control-word 0",
       "at 1 compromise ttp-key", "at 1 compromise sender-keys 1", "at 2 pirate-probe 2",
       "at 2 forge-sender 0 3", "at 2 pirate-probe 6", "at 2 forge-sender 1 7",
       "at 4 rotate-sender 1", "at 6 compromise sender-keys 1", "at 8 rotate-ttp",
       "at 10 compromise ttp-key"]) + "\n"
PROBE_IDS = (2, 3, 6, 7)


def _recorded_probes(monkeypatch) -> tuple[dict, object]:
    """Run ``PROBE_WORLD``: each probe's messages by (decoder, epoch), and the world."""
    sent: dict[tuple[int, int], list[ChipChannelMsg]] = {}
    real = sim._probe_msgs

    def recording(world, decoder, epoch, probe):
        sent[int.from_bytes(decoder.decoder_id, "big"), epoch] = msgs = real(
            world, decoder, epoch, probe)
        return msgs

    monkeypatch.setattr(sim, "_probe_msgs", recording)
    return sent, run_world(parse_scenario(PROBE_WORLD))[1]


def _load(msgs: list[ChipChannelMsg]) -> bytes:
    [load] = [msg.payload for msg in msgs if msg.kind == ChipMsgKind.LOAD_LTK]
    return load


def _changes(sent: dict, decoder: int, value) -> list[int]:
    """The epochs from 3 on where ``value`` of the decoder's probe messages
    differs from the epoch before."""
    return [epoch for epoch in range(3, 12)
            if value(sent[decoder, epoch]) != value(sent[decoder, epoch - 1])]


def test_every_probed_decoder_epoch_still_delivers_a_load(monkeypatch):
    # the load is built once per knowledge state but delivered to the chip
    # every epoch; epoch 4's sender rotation also re-enrolls the binding
    # decoders
    calls: Counter = Counter()
    real_process = sim.process_frame

    def process_frame(decoder, frame, chip_filter):
        result = real_process(decoder, frame, chip_filter)
        calls[int.from_bytes(decoder.decoder_id, "big"), frame.epoch] += sum(
            msg.kind == ChipMsgKind.LOAD_LTK for msg in result.chip_msgs)
        return result

    monkeypatch.setattr(sim, "process_frame", process_frame)
    sent, _ = _recorded_probes(monkeypatch)
    assert sorted(sent) == [(d, e) for d in PROBE_IDS for e in range(2, 12)]
    assert {(d, e): calls[d, e] for d in PROBE_IDS for e in range(2, 12)} == {
        (d, e): 2 if d > 3 and e == 4 else 1 for d in PROBE_IDS for e in range(2, 12)}


def test_a_binding_pirate_probe_rebuilds_only_when_its_knowledge_changes(monkeypatch):
    # the stolen sender key changes only when sender keys are compromised
    # again after a rotation (epoch 6); the rotate-ttp at 8 replaces the
    # directory, so the load is rebuilt, under the same key
    sent, world = _recorded_probes(monkeypatch)
    assert _changes(sent, 6, lambda msgs: Bundle.from_bytes(_load(msgs)).announce) == [6]
    assert _changes(sent, 6, _load) == [6, 8]
    assert Bundle.from_bytes(_load(sent[6, 11])).announce == (
        world.headend.ca_systems[1].sender.sig_keypair.public_key)


def test_a_certificate_forge_probe_rebuilds_after_rotate_ttp(monkeypatch):
    # a new directory (epoch 8) and a newly stolen authority key (epoch 10)
    # each make a new load with a newly minted certificate; in between the
    # same load is re-sent
    sent, world = _recorded_probes(monkeypatch)
    assert _changes(sent, 3, _load) == [8, 10]
    certs = [Certificate.from_bytes(Bundle.from_bytes(_load(sent[3, e])).announce)
             for e in (2, 8, 10)]
    assert [cert.generation for cert in certs] == [1, 1, 2]
    assert len({cert.serial for cert in certs}) == 3
    # three loads for each certificate probe, and no more certificates
    assert world.adversary.minted_serial == 0x7F000000 + 6


def test_the_head_ends_directory_is_replaced_only_when_the_authority_rotates(monkeypatch):
    # a probe's forged load is rebuilt when the directory changes, so every
    # probed report depends on when that is: at rotate-ttp (4) and recover
    # (8), and at none of the sender rotations of either kind (2, 6)
    directories = []
    epoch_tick = sim.hemod.epoch_tick

    def recording(headend, content):
        directories.append(headend.directory)
        return epoch_tick(headend, content)

    monkeypatch.setattr(sim.hemod, "epoch_tick", recording)
    run_world(parse_scenario("\n".join(
        ["scenario directory", "seed 7", "epochs 10", "ca 0 cert", "ca 1 bind",
         "decoder 1 ca 0", "decoder 2 ca 1", "at 0 authorize 0 1", "at 0 authorize 1 2",
         "at 2 rotate-sender 0", "at 2 rotate-sender 1", "at 4 rotate-ttp",
         "at 6 rotate-sender 0", "at 6 rotate-sender 1", "at 8 recover"]) + "\n"))
    assert len(directories) == 10
    assert [epoch for epoch in range(1, 10)
            if directories[epoch] is not directories[epoch - 1]] == [4, 8]


def test_a_probes_first_set_is_phase1_send_from_that_epochs_draws(monkeypatch):
    # the binding forge probe's first epoch draws its rogue key, then the
    # long-term key and ephemeral key through ``phase1_send``, then the secret
    sent, world = _recorded_probes(monkeypatch)
    rng = world.master.child("adversary").child("probe-7-2")
    rogue = world.suite.keygen("sig", rng)
    sender = SenderState(world.suite, rogue)
    directory = build_world(parse_scenario(PROBE_WORLD)).headend.directory
    bundle = bindproto.phase1_send(sender, directory, encode_id(7), rng)
    secret = rng.read(world.suite.secret_bytes)
    assert sent[7, 2] == [
        ChipChannelMsg(ChipMsgKind.LOAD_LTK, bundle.to_bytes()),
        ChipChannelMsg(ChipMsgKind.PK_SET_UPDATE, build_pk_set_body((rogue.public_key,))),
        derive_msg(world.suite, sender.ltk_store[encode_id(7)], 2, secret, rogue.public_key)]
    assert world.adversary.probes[encode_id(7)].rogue == rogue


def test_a_probe_derives_its_epochs_draws_only_when_it_draws(monkeypatch):
    # a probe's child ``probe-<id>-<epoch>`` is derived only in an epoch that
    # draws from it. A build draws (epoch 2 for all four, with the rogue key
    # of 2, 3 and 7; 6 for probe 6, the newly stolen sender key; 8 for all,
    # the new directory; 10 for 2 and 3, the newly stolen authority key),
    # and so does a secret the adversary does not know (every epoch of the
    # binding forge probe 7); 2, 3 and 6 know theirs. The other 21 of the
    # 40 probed decoder-epochs derive nothing.
    labels = []
    child = suitemod.Drbg.child

    def recording(rng, label):
        if isinstance(label, str) and label.startswith("probe-"):
            labels.append(label)
        return child(rng, label)

    monkeypatch.setattr(suitemod.Drbg, "child", recording)
    run_world(parse_scenario(PROBE_WORLD))
    assert len(labels) == 19
    assert sorted(labels) == sorted(
        [f"probe-{d}-{e}" for d in (2, 3) for e in (2, 8, 10)]
        + [f"probe-6-{e}" for e in (2, 6, 8)] + [f"probe-7-{e}" for e in range(2, 12)])


ONE_SHOTS = ("tamper", "replay", "inject-cw")


@pytest.mark.parametrize("text", [PROBE_WORLD, _rekey_shaped()],
                         ids=["probe-world", "rekey-shaped"])
def test_chip_filters_are_built_only_where_the_adversary_acts_or_reads(text, monkeypatch):
    # an epoch with a one-shot event interposes on every decoder; any other
    # asks for the probed decoders and the chip-class replay sources only
    asked: Counter = Counter()
    chip_filter_for = sim._chip_filter_for

    def counting(world, decoder, epoch):
        asked[epoch, int.from_bytes(decoder.decoder_id, "big")] += 1
        return chip_filter_for(world, decoder, epoch)

    monkeypatch.setattr(sim, "_chip_filter_for", counting)
    config = parse_scenario(text)
    run_world(config)
    everyone = {spec.decoder_id for spec in config.decoders}
    sources = {int(ev.args[0]) for ev in config.events
               if ev.verb == "replay" and ev.args[2] in sim.CHIP_CLASSES}
    expected: Counter = Counter()
    for epoch in range(config.epochs):
        if any(ev.epoch == epoch and ev.verb in ONE_SHOTS for ev in config.events):
            expected.update((epoch, d) for d in everyone)
        else:
            expected.update((epoch, d) for d in sources | {
                int(ev.args[-1]) for ev in config.events
                if ev.verb in ("pirate-probe", "forge-sender") and ev.epoch <= epoch})
    assert asked == expected
    assert sum(expected.values()) < len(everyone) * config.epochs


@pytest.mark.parametrize("text, verdicts, expected", [
    (PROBE_WORLD, (False, None),
     {"x25519 exchange": 54, "ed25519 sign": 56, "ed25519 verify": 36, "aes-gcm encrypt": 129,
      "aes-gcm decrypt": 129, "aes-gcm context": 73, "aes-ctr setup": 24}),
    (_rekey_shaped(), (True, True),
     {"x25519 exchange": 120, "ed25519 sign": 104, "ed25519 verify": 67, "aes-gcm encrypt": 574,
      "aes-gcm decrypt": 612, "aes-gcm context": 177, "aes-ctr setup": 68}),
], ids=["probe-world", "rekey-shaped"])
def test_a_probed_world_makes_an_exact_number_of_primitive_calls(text, verdicts, expected,
                                                                 monkeypatch):
    # every call at the ``cryptography`` boundary: a chip that opened a
    # repeated key load again, or a memo that lost an entry, adds to these.
    # Each rogue key's self-test is one sign and one verify. A chip takes a
    # byte-identical copy of the load it last opened with no exchange;
    # opening every copy again would add 34 to rekey-shaped's: the forged
    # load re-sent to each of the two probed bind chips in 17 more epochs.
    calls = _count_primitives(monkeypatch)
    report = run_world(parse_scenario(text))[0]
    assert (report.implicit_key_auth, report.recovery_success) == verdicts
    assert dict(calls) == expected


@pytest.mark.parametrize("kind, fixed_signs", [("bind", 3), ("cert", 4)])
def test_build_cost_per_receiver_does_not_grow_with_the_population(kind, fixed_signs,
                                                                   monkeypatch):
    # each added receiver costs 2 exchanges (one of them its key pair's
    # ladder self-test), 2 AES-GCM contexts, 2 encrypts and 2 signs, and
    # opens nothing; the authority and the sender cost a fixed amount
    calls = _count_primitives(monkeypatch)
    for n in (4, 16):
        calls.clear()
        build_world(parse_scenario("\n".join(
            ["scenario build-cost", "seed 1", "epochs 1", f"ca 0 {kind}"]
            + [f"decoder {d} ca 0" for d in range(1, n + 1)]) + "\n"))
        assert dict(calls) == {"x25519 exchange": 2 * n, "aes-gcm context": 2 * n + 1,
                               "aes-gcm encrypt": 2 * n + 1, "ed25519 sign": 2 * n + fixed_signs,
                               "ed25519 verify": 3}


def test_legacy_decoder_accepts_redistributed_word_and_verdict_reports_it():
    # the contrast run (not shipped): injecting a known word at a legacy
    # decoder works, and the report honestly flags the violation
    text = """
scenario legacy-weakness
seed 8
epochs 6
ca 0 legacy
decoder 1 ca 0
decoder 2 ca 0
at 0 authorize 0 1
at 2 compromise control-word 1
at 3 inject-cw 2
"""
    report = run_world(parse_scenario(text))[0]
    assert _outcomes(report)[3][2] == "K"  # unauthorized derivation
    assert report.authenticity_violations >= 1
    assert not report.implicit_key_auth


def test_recovery_verdict_counts_the_recover_epoch_itself():
    # a word injected in the recover epoch reaches a legacy decoder that
    # epoch; recovery is judged from that epoch on, not from the next one
    text = """
scenario recover-epoch
seed 3
epochs 8
ca 0 legacy
decoder 1 ca 0
decoder 2 ca 0
at 0 authorize 0 1
at 2 compromise control-word 1
at 4 recover
at 4 inject-cw 2
"""
    report_text = run_world(parse_scenario(text))[0].to_text()
    assert "epoch 4 auth 1 interfered 2 outcomes 1=K 2=K\n" in report_text
    assert "epoch 5 auth 1 interfered - outcomes 1=K 2=X\n" in report_text
    assert "verdict recovery-success fail\n" in report_text


def test_recover_enrolls_a_compromised_legacy_client_again():
    # a legacy system has no sender to re-key, so recover enrolls its
    # swapped client itself, or decoder 3 reads X from the recover epoch on
    text = """
scenario legacy-recover
seed 1
epochs 5
ca 0 bind
ca 1 cert
ca 2 legacy
decoder 1 ca 0
decoder 2 ca 1
decoder 3 ca 2
decoder 4 ca 2
at 0 authorize 0 1
at 0 authorize 1 2
at 0 authorize 2 3
at 0 authorize 2 4
at 1 compromise ca-client 3
at 2 recover
"""
    report = run_world(parse_scenario(text))[0]
    assert _outcomes(report) == [{1: "K", 2: "K", 3: "K", 4: "K"}] * 5
    assert report.implicit_key_auth and report.recovery_success
    assert report.authenticity_violations == 0


BRANCH_WORLD = """
scenario adversary-branch
seed 3
epochs {epochs}
ca 0 {kind}
decoder 1 ca 0
decoder 2 ca 0
at 0 authorize 0 1
"""


@pytest.mark.parametrize("kind, epochs, events, rows, verdicts, swallowed", [
    # a legacy chip takes the raw word a pirate probe sends
    ("legacy", 5, ["at 1 compromise control-word 1", "at 2 pirate-probe 2"],
     {e: "auth 1 interfered 2 outcomes 1=K 2=K" for e in (2, 3, 4)},
     ["authenticity-violations 3"], []),
    # a forge at a certificate chip needs the authority key: nothing is sent
    ("cert", 5, ["at 1 compromise control-word 1", "at 2 forge-sender 0 2"],
     {e: "auth 1 interfered 2 outcomes 1=K 2=X" for e in (2, 3, 4)},
     ["implicit-key-auth pass", "authenticity-violations 0"], []),
    # a certificate pirate wraps the known word under the stolen long-term key
    ("cert", 5, ["at 1 compromise control-word 1", "at 1 compromise sender-keys 0",
                 "at 2 pirate-probe 2"],
     {e: "auth 1 interfered 2 outcomes 1=K 2=K" for e in (2, 3, 4)},
     ["authenticity-violations 3"], []),
    # a flipped per-receiver EMM interferes with its addressee alone
    ("bind", 5, ["at 2 authorize 0 2", "at 2 tamper emm-receiver 5"],
     {2: "auth 1,2 interfered 2 outcomes 1=K 2=R"}, [], []),
    # the withdrawal is flipped, so decoder 2 keeps the retired ECM key, and
    # the ECM replayed to it fails to open under that key
    ("bind", 6, ["at 0 authorize 0 2", "at 3 deauthorize 0 2", "at 3 tamper emm-receiver 5",
                 "at 3 replay 1 2 ecm"],
     {3: "auth 1 interfered 2 outcomes 1=K 2=R", 4: "auth 1 interfered - outcomes 1=K 2=R",
      5: "auth 1 interfered - outcomes 1=K 2=R"}, [], [CryptoError]),
], ids=["legacy-probe-raw-word", "cert-forge-without-authority-key",
        "cert-probe-stolen-long-term-key", "tampered-entitlement", "replay-under-retired-key"])
def test_adversary_branches_no_shipped_scenario_reaches(kind, epochs, events, rows, verdicts,
                                                        swallowed, monkeypatch):
    raised = []
    process_ecm = sim.client_process_ecm

    def recording_process_ecm(client, ecm):  # sim calls it only to replay
        try:
            return process_ecm(client, ecm)
        except CwbindError as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(sim, "client_process_ecm", recording_process_ecm)
    text = BRANCH_WORLD.format(epochs=epochs, kind=kind) + "\n".join(events) + "\n"
    lines = run_world(parse_scenario(text))[0].to_text().splitlines()
    for epoch, row in rows.items():
        assert f"epoch {epoch} {row}" in lines
    for verdict in verdicts:
        assert f"verdict {verdict}" in lines
    assert raised == swallowed  # the run went on: the replay's rejection was swallowed


def test_bandwidth_ledger_chip_channel_excluded_from_broadcast():
    report = run_world(parse_scenario(MINI))[0]
    ledger = report.ledger
    assert ledger.chip_channel > 0
    assert ledger.broadcast_total() == (
        ledger.ecm + ledger.emm_broadcast + ledger.emm_receiver + ledger.content
    )


@pytest.mark.parametrize("kind", list(EmmKind))
@pytest.mark.parametrize("addressee", [BROADCAST_ADDR, encode_id(1)], ids=["broadcast", "receiver"])
def test_the_ledger_counts_as_broadcast_exactly_what_the_frame_routes_to_everyone(kind, addressee):
    # the head-end pairs each kind with its addressee, but the ledger, the
    # adversary's capture and tamper and the router all go by the kind alone
    emm = Emm(0, kind, addressee, b"\x00" * 40)
    frame = BroadcastFrame(0, b"", (), (emm,))
    to_everyone = all(frame.emms_for(0, encode_id(d)) == [emm] for d in (1, 2))
    ledger = sim.BandwidthLedger()
    ledger.add_frame(frame)
    assert emm.is_broadcast() == to_everyone == (kind in BROADCAST_KINDS)
    assert (ledger.emm_broadcast, ledger.emm_receiver) == (
        (emm_size(emm), 0) if to_everyone else (0, emm_size(emm)))


def test_broadcast_emm_bytes_identical_for_all_receivers(frames):
    # a broadcast EMM is one message for everyone: delivery adds nothing per
    # decoder, and both decoders act on the same bytes
    config = parse_scenario(MINI + "at 0 authorize 0 2\nat 2 rotate-sender 0\n")
    report = run_world(config)[0]
    frame = decode_frame(frames[2])
    broadcast = [emm for emm in frame.emms if emm.is_broadcast()]
    assert broadcast, "rotation should announce over broadcast"
    assert _outcomes(report)[2] == {1: "K", 2: "K"}


@pytest.mark.parametrize("hash_seed", ["1", "2718281828"])
def test_reports_do_not_depend_on_the_hash_seed(hash_seed):
    # set and dict iteration order varies with PYTHONHASHSEED; every report
    # must come out byte for byte the same under any of them
    program = (
        "import sys\n"
        "from pathlib import Path\n"
        "from cwbind.sim import load_scenario, run_world\n"
        "for path in sys.argv[1:]:\n"
        "    sys.stdout.write(run_world(load_scenario(Path(path)))[0].to_text())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", program, *map(str, SHIPPED)], env=env,
                         capture_output=True, text=True, check=True).stdout
    expected = "".join((SCENARIO_DIR / "expected" / f"{p.stem}.report").read_text()
                       for p in SHIPPED)
    assert len(SHIPPED) == 9
    assert out == expected

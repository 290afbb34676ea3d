"""Acceptance criteria.

One test per criterion, each printing a PASS line on success (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Tolerances are exact
where the criterion is exact; the statistical criteria state their trial
counts inline.
"""

import math
import time
from pathlib import Path

import pytest

from cwbind import bindproto, certproto, headend as hemod, sim
from cwbind.binding import second_preimage_strength
from cwbind.decoder import ChipChannelMsg, ChipMsgKind, chip_process, process_frame
from cwbind.encoding import encode_id
from cwbind.errors import CwbindError
from cwbind.kinds import BIND
from cwbind.sim import compute_verdicts, load_scenario, run_world
from cwbind.suite import CipherSuite, Drbg
from cwbind.ttp import Certificate, verify_certificate
from cwbind.wire import decode_ecm, decode_emm, encode_ecm, encode_emm, EmmKind
from golden import generate_vectors, vectors_json

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
VECTORS = Path(__file__).resolve().parent / "vectors"


def _ok(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _sampled_bits(blob: bytes, count: int = 64) -> list[int]:
    total = len(blob) * 8
    return sorted({(i * total) // count for i in range(count)})


def test_criterion_01_strength_formula_grid():
    started = time.monotonic()
    for n in (128, 192, 256, 511):
        for exponent in range(10, 41):
            length = 2**exponent
            oracle = min(n, math.floor(512 - math.log2(length / 2**10)))
            assert second_preimage_strength(n, length) == oracle
            if n <= 256:
                assert second_preimage_strength(n, length) == n
    # every input length the artifact can produce (up to 16 senders) keeps
    # the strength pinned at n
    artifact_max_bits = max((16 * 32 + 32) * 8, 2**10)
    for n in (128, 192, 256):
        assert second_preimage_strength(n, artifact_max_bits) == n
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"grid took {elapsed:.3f}s"
    _ok("1 strength-formula-reproduction")


def test_criterion_02_key_length_anchor(frames):
    suite = CipherSuite()
    assert suite.secret_bits == 128
    assert suite.secret_bytes == 16

    # drive one epoch end to end and measure the ECM's secret field
    report, world = run_world(load_scenario(SCENARIOS / "client-swap.scn"))
    from cwbind.wire import decode_frame, ecm_aad

    frame = decode_frame(frames[0])
    ecm = frame.ecms[0]
    secret = world.suite.sym_decrypt(world.headend.ca_systems[0].ecm_key,
                                     ecm.protected_secret, ecm_aad(ecm.ca_system_id, ecm.epoch))
    assert len(secret) == 16
    _ok("2 key-length-anchor (n=128, ECM secret 16 bytes)")


@pytest.mark.parametrize("stem", ["baseline-cert", "baseline-bind"])
def test_criterion_03_honest_end_to_end(stem):
    started = time.monotonic()
    config = load_scenario(SCENARIOS / f"{stem}.scn")
    assert config.epochs == 100 and len(config.decoders) == 8
    report = run_world(config)[0]
    authorized_sets = []
    for row in report.rows:
        authorized, _, outcomes = report.decode(row)
        authorized_sets.append(authorized)
        for decoder_id, outcome in outcomes.items():
            if decoder_id in authorized:
                assert outcome == "K", (row.epoch, decoder_id)
            else:
                assert outcome == "X", (row.epoch, decoder_id)
    # the authorized subset really does change every 10 epochs
    window_sets = set(authorized_sets[::10])
    assert len(window_sets) > 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _ok(f"3 honest-end-to-end ({stem}, {elapsed:.2f}s)")


def test_criterion_04_implicit_key_authentication_all_scenarios():
    for path in sorted(SCENARIOS.glob("*.scn")):
        report = run_world(load_scenario(path))[0]
        implicit, violations = compute_verdicts(report.rows)
        assert implicit, path.stem
        assert violations == 0, path.stem
        assert report.implicit_key_auth
    _ok("4 implicit-key-authentication (all shipped scenarios)")


def test_criterion_05_message_authenticity_bit_tampering(suite):
    # >= 64 sampled bit positions in each message class; every flip must be
    # rejected or yield a mismatched secret -- never an unauthorized descramble
    from cwbind.phase1 import Bundle
    from cwbind.ttp import export_directory, parse_directory, register_receiver, ttp_init

    rng = Drbg.from_int(0xACCE)
    ttp = ttp_init(suite, rng.child("ttp"))
    recv = certproto.receiver_init(suite, encode_id(1), ttp.generation, ttp.keypair.public_key,
                                   rng.child("r1"))
    brecv = bindproto.receiver_init(suite, encode_id(2), rng.child("r2"))
    register_receiver(ttp, encode_id(1), recv.enc_keypair.public_key)
    register_receiver(ttp, encode_id(2), brecv.enc_keypair.public_key)
    directory = parse_directory(suite, export_directory(ttp))
    csender = certproto.sender_init(suite, encode_id(10), rng.child("cs"), ttp)
    bsender = bindproto.sender_init(suite, rng.child("bs"))

    rejected = {}

    # class 1: certificate
    bundle = certproto.phase1_send(csender, directory, encode_id(1), rng)
    cert_bytes = bundle.announce
    count = 0
    for bit in _sampled_bits(cert_bytes):
        try:
            cert = Certificate.from_bytes(_flip(cert_bytes, bit))
            verify_certificate(suite, cert, recv.authority_pk)
        except CwbindError:
            count += 1
    rejected["certificate"] = (count, len(_sampled_bits(cert_bytes)))

    # class 2: signed bundle (delivery blob)
    blob_bytes = bundle.signed_blob
    count = 0
    for bit in _sampled_bits(blob_bytes):
        try:
            certproto.phase1_receive(recv, Bundle(cert_bytes, _flip(blob_bytes, bit)))
        except CwbindError:
            count += 1
    rejected["signed-bundle"] = (count, len(_sampled_bits(blob_bytes)))

    # classes 3-5 need a running head-end
    master = Drbg.from_int(0xACCE2)
    ttp2 = ttp_init(suite, master.child("ttp"))
    from cwbind.decoder import make_decoder

    channel_key = master.child("prov").read(16)
    decoder = make_decoder(suite, BIND, 0, encode_id(5), master.child("chip"), channel_key,
                           ttp2.generation, ttp2.keypair.public_key)
    register_receiver(ttp2, encode_id(5), decoder.chip_public_key())
    directory2 = parse_directory(suite, export_directory(ttp2))
    headend = hemod.headend_init(suite, [BIND], master.child("he"), ttp2, directory2)
    hemod.provision_receiver(headend, 0, encode_id(5), channel_key)
    hemod.enroll_receiver(headend, 0, encode_id(5))
    hemod.authorize(headend, 0, encode_id(5), True)
    content = b"\x5a" * 48
    frame = hemod.epoch_tick(headend, content)
    result = process_frame(decoder, frame, None)
    assert result.descrambled == content  # honest path works before tampering

    # class 3: sender key broadcast EMM. A flip is harmless if it raises or
    # if the message is ignored without any effect (e.g. the system id no
    # longer matches); it must never change what the client believes.
    import copy

    from cwbind.decoder import client_process_emm

    hemod.rotate_sender_key(headend, 0, master.child("rot"))
    frame2 = hemod.epoch_tick(headend, content)
    pk_emm = next(e for e in frame2.emms if e.kind == EmmKind.BROADCAST_SENDER_PK)
    emm_bytes = encode_emm(pk_emm)
    count = 0
    for bit in _sampled_bits(emm_bytes):
        before = copy.deepcopy(decoder.client)
        try:
            msgs = client_process_emm(decoder.client, decode_emm(_flip(emm_bytes, bit)))
        except CwbindError:
            count += 1
            continue
        assert msgs == [] and decoder.client == before, f"emm bit {bit} took effect"
        count += 1
    rejected["pk-broadcast"] = (count, len(_sampled_bits(emm_bytes)))
    process_frame(decoder, frame2, None)  # let the decoder catch back up

    # class 4: ECM, same no-effect standard
    from cwbind.decoder import client_process_ecm

    frame3 = hemod.epoch_tick(headend, content)
    ecm_bytes = encode_ecm(frame3.ecms[0])
    count = 0
    for bit in _sampled_bits(ecm_bytes):
        before = copy.deepcopy(decoder.client)
        try:
            msg = client_process_ecm(decoder.client, decode_ecm(_flip(ecm_bytes, bit)))
        except CwbindError:
            count += 1
            continue
        assert msg is None and decoder.client == before, f"ecm bit {bit} took effect"
        count += 1
    rejected["ecm"] = (count, len(_sampled_bits(ecm_bytes)))

    # class 5: chip-channel derive message
    genuine = process_frame(decoder, frame3, None)
    assert genuine.descrambled == content
    derive = next(m for m in genuine.chip_msgs if m.kind == ChipMsgKind.DERIVE)
    derive_bytes = derive.encode()
    count = 0
    scrambled = frame3.scrambled_content
    for bit in _sampled_bits(derive_bytes):
        try:
            msg = ChipChannelMsg.decode(_flip(derive_bytes, bit))
            handle = chip_process(decoder.chip, msg)
            from cwbind.decoder import descramble

            out = descramble(decoder.chip, handle, scrambled)
        except CwbindError:
            count += 1
            continue
        assert out != content, f"derive bit {bit} produced an unauthorized descramble"
    rejected["chip-derive"] = (count, len(_sampled_bits(derive_bytes)))

    for cls, (got, want) in rejected.items():
        assert got == want, f"{cls}: {got}/{want} rejected"
        assert want >= 64
    _ok("5 message-authenticity (" +
        ", ".join(f"{cls} {got}/{want}" for cls, (got, want) in rejected.items()) + ")")


def test_criterion_06_redistribution_resistance():
    report = run_world(load_scenario(SCENARIOS / "redistribution.scn"))[0]
    rows = [report.decode(row) for row in report.rows]
    assert all(outcomes[2] != "K" for _, _, outcomes in rows)
    # the adversary acted with a known control word and the compliant chip
    # still never descrambled: zero successes over the whole run
    attacked = [epoch for epoch, (_, interfered, _) in enumerate(rows) if 2 in interfered]
    assert attacked, "scenario must actually attack the target"
    assert report.authenticity_violations == 0
    _ok(f"6 redistribution-resistance ({len(attacked)} attacked epochs, 0 descrambles)")


def test_criterion_07_cross_sender_binding():
    report = run_world(load_scenario(SCENARIOS / "rogue-sender.scn"))[0]
    probed = [outcomes for _, interfered, outcomes in map(report.decode, report.rows)
              if 3 in interfered]
    assert len(probed) == 100
    mismatches = sum(1 for outcomes in probed if outcomes[3] != "K")
    assert mismatches == 100
    assert report.authenticity_violations == 0
    _ok("7 cross-sender-binding (100/100 forged derivations mismatch)")


def test_criterion_07_forged_sets_fail_on_the_binding_not_the_format(monkeypatch):
    # a forged set the chip refused as malformed would also keep decoder 3
    # off K; every epoch its chip must take the whole set without an error,
    # derive and descramble, so each R comes from the rogue key's binding
    results = []

    def spying(decoder, frame, chip_filter):
        result = process_frame(decoder, frame, chip_filter)
        if decoder.decoder_id == encode_id(3):
            results.append(result)
        return result

    monkeypatch.setattr(sim, "process_frame", spying)
    run_world(load_scenario(SCENARIOS / "rogue-sender.scn"))
    assert len(results) == 100
    assert all(not result.errors and result.descrambled is not None for result in results)
    _ok("7 cross-sender-binding (100/100 forged sets accepted, bound to the rogue key)")


def test_criterion_08_recovery_contrast():
    bind_report = run_world(load_scenario(SCENARIOS / "recovery-bind.scn"))[0]
    cert_report = run_world(load_scenario(SCENARIOS / "recovery-cert.scn"))[0]

    assert bind_report.decoders_replaced == 0
    assert bind_report.recovery_success
    for row in bind_report.rows[60:]:
        authorized, interfered, outcomes = bind_report.decode(row)
        for decoder_id in authorized - interfered:
            assert outcomes[decoder_id] == "K", (row.epoch, decoder_id)

    assert cert_report.decoders_replaced == 8  # the whole population
    assert cert_report.recovery_success
    _ok("8 recovery-contrast (bind replaced 0, cert replaced 8)")


def test_criterion_09_bandwidth_parity():
    cert_report = run_world(load_scenario(SCENARIOS / "baseline-cert.scn"))[0]
    bind_report = run_world(load_scenario(SCENARIOS / "baseline-bind.scn"))[0]
    assert cert_report.ledger.ecm == bind_report.ledger.ecm
    assert bind_report.ledger.emm_broadcast <= cert_report.ledger.emm_broadcast
    _ok(
        "9 bandwidth-parity (ecm "
        f"{cert_report.ledger.ecm}={bind_report.ledger.ecm} bytes; broadcast emm "
        f"{bind_report.ledger.emm_broadcast}<={cert_report.ledger.emm_broadcast} bytes)"
    )


def test_criterion_10_determinism_and_golden_vectors():
    config = load_scenario(SCENARIOS / "baseline-bind.scn")
    assert run_world(config)[0].to_text() == run_world(config)[0].to_text()
    for path in sorted(SCENARIOS.glob("*.scn")):
        expected = (SCENARIOS / "expected" / f"{path.stem}.report").read_text()
        assert run_world(load_scenario(path))[0].to_text() == expected, path.stem
    for name, entries in generate_vectors().items():
        assert vectors_json(entries) == (VECTORS / f"{name}.json").read_text(), name
    _ok("10 determinism-and-golden-vectors")

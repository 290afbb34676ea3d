"""Generated workloads: parse round trip, schedule model, checked runs."""

from cwbind.sim import parse_scenario, run_world

import check
import workloads


def test_generated_text_round_trips_through_parse_scenario(tiny):
    config = parse_scenario(tiny.text)
    assert config.name == tiny.name
    assert config.seed == 5
    assert config.epochs == tiny.epochs
    assert sorted(spec.decoder_id for spec in config.decoders) == sorted(tiny.decoder_ids)
    assert len(config.ca_kinds) >= 2


def test_same_seed_same_text_and_seed_only_fills_seed_line():
    for name in workloads.GENERATORS:
        a = workloads.generate(name, 11)
        assert a.text == workloads.generate(name, 11).text
        b = workloads.generate(name, 12)
        assert a.text.replace("seed 11\n", "seed 12\n") == b.text


def test_full_size_shapes_match_their_reasons():
    steady = parse_scenario(workloads.generate("steady-simulcrypt", 1).text)
    assert steady.ca_kinds == ["bind", "bind", "cert", "legacy"]
    churn = parse_scenario(workloads.generate("churn-512", 1).text)
    assert len(churn.decoders) == 512 and churn.ca_kinds == ["bind", "cert"]
    rekey = workloads.generate("rekey-attack", 1)
    assert len(rekey.decoder_ids) == 128
    assert rekey.rekey_epochs == (10, 20, 40, 60, 80, 100)
    assert all(len(auth) == 80 for auth in rekey.authorized)
    for epoch in range(rekey.epochs):
        # every interference targets an unauthorized decoder
        assert not rekey.interfered[epoch] & rekey.authorized[epoch]
    for wl in (steady, churn):
        assert wl.epochs >= 100


def test_tiny_worlds_pass_the_independent_check(tiny):
    report, _ = run_world(parse_scenario(tiny.text))
    result = check.check_report(report.to_text(), tiny, 5)
    assert result.problems == []
    assert result.failures == 0
    assert result.decoder_epochs == tiny.epochs * len(tiny.decoder_ids)
    assert result.broadcast_bytes > 0

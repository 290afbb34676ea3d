"""Tracer arithmetic on a synthetic call tree, and on a real world."""

from types import SimpleNamespace

from cwbind import decoder, headend, sim
from cwbind.sim import parse_scenario, run_world

import check
import tracing
import workloads


class FakeClock:
    """Time moves only when the synthetic code does work."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def work(self, ns):
        self.now += ns


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    client = SimpleNamespace(ca_system_id=0, receiver_id=b"\x01")
    mine = SimpleNamespace(ca_system_id=0, addressee=b"\x01", is_broadcast=lambda: False)
    other = SimpleNamespace(ca_system_id=1, addressee=b"\x02", is_broadcast=lambda: False)

    def emm_aad():
        clock.work(1)

    def client_process_emm(client, emm):
        clock.work(3)
        aad()

    def sign():
        clock.work(7)

    def chip_process():
        clock.work(1)
        raise ValueError("rejected")

    def process_frame(emm):
        clock.work(1)
        cpe(client, emm)
        sgn()
        try:
            chip()
        except ValueError:
            pass

    def epoch_tick(state):
        clock.work(2)
        state.epoch += 1
        return SimpleNamespace(emms=(1, 2, 3))

    def build_world():
        clock.work(5)

    def run_world():
        build()
        clock.work(1)  # epoch-0 events: run_world self time
        state = SimpleNamespace(epoch=0)
        for emm in (mine, other):
            tick(state)
            frame(emm)
            clock.work(1)  # unattributed loop work
        clock.work(1)  # report building, inside the last epoch span

    aad = tracer.wrap("wire.emm_aad", emm_aad)
    cpe = tracer.wrap("decoder.client_process_emm", client_process_emm)
    sgn = tracer.wrap("suite.sign", sign)
    chip = tracer.wrap("decoder.chip_process", chip_process)
    frame = tracer.wrap("decoder.process_frame", process_frame)
    tick = tracer.wrap("headend.epoch_tick", epoch_tick)
    build = tracer.wrap("sim.build_world", build_world)
    tracer.wrap("sim.run_world", run_world)()

    totals = tracer.totals()
    assert totals["wire.emm_aad"] == [2, 2, 2, 0]
    assert totals["decoder.client_process_emm"] == [2, 8, 6, 0]
    assert totals["suite.sign"] == [2, 14, 14, 0]
    assert totals["decoder.chip_process"] == [2, 2, 2, 2]
    # process_frame: 1 own + cpe 4 + sign 7 + chip 1 = 13 per call
    assert totals["decoder.process_frame"] == [2, 26, 2, 0]
    assert totals["headend.epoch_tick"] == [2, 4, 4, 0]
    assert totals["sim.build_world"] == [1, 5, 5, 0]
    # run_world = build 5 + own 1 + epoch 0 (2+13+1) + epoch 1 (2+13+1+1)
    assert totals["sim.run_world"] == [1, 39, 1, 0]

    spans = [(s[0], s[3], s[4], s[2] - s[1], s[5]) for s in tracer.spans]
    assert spans == [
        ("sim.run_world", -1, -1, 39, 1),
        ("sim.build_world", 0, -1, 5, 5),
        ("epoch", 0, 0, 16, 1),
        ("decoder.process_frame", 2, 0, 13, 1),
        ("epoch", 0, 1, 17, 2),
        ("decoder.process_frame", 4, 1, 13, 1),
    ]
    assert tracer.unattributed_ns() == 1 + 1 + 2
    assert set(tracer.epochs) == {-1, 0, 1}
    assert tracer.epochs[0]["decoder.client_process_emm"] == [1, 4, 3, 0]

    m = tracer.layer_metrics()
    assert m["decoder.emm_useful_ratio"] == 0.5
    assert m["decoder.chip_reject_ratio"] == 1.0
    assert m["headend.emms_per_frame"] == 3.0
    assert m["sim.adversary_probe.suite_us"] == 14 / 1e3


def test_wrapper_cost_is_taken_from_the_parent_and_reported():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock, cost=tracing.WrapperCost(parent_ns=2, total_ns=5))

    def emm_aad():
        clock.work(1)

    def run_world():
        clock.work(20)
        for _ in range(3):
            aad()

    aad = tracer.wrap("wire.emm_aad", emm_aad)
    tracer.wrap("sim.run_world", run_world)()
    totals = tracer.totals()
    assert totals["wire.emm_aad"] == [3, 3, 3, 0]
    # 23 ns inside run_world, 3 of them in children, 3 x 2 ns of wrapper entry
    assert totals["sim.run_world"] == [1, 23, 23 - 3 - 3 * 2, 0]
    # 4 traced calls x 5 ns over 23 ns of traced run time
    assert tracer.layer_metrics()["trace.wrapper_share"] == 4 * 5 / 23


def test_calibrated_wrapper_cost_is_positive_and_within_the_whole():
    cost = tracing.calibrate()
    assert 0 < cost.parent_ns < cost.total_ns


def test_traced_world_reports_the_same_bytes_and_every_boundary():
    wl = workloads.generate("rekey-attack", 4, epochs=30, per_system=8)
    config = parse_scenario(wl.text)
    plain, _ = run_world(config)
    originals = (sim.process_frame, headend.epoch_tick, decoder.client_process_emm)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sim.process_frame is not originals[0]
        traced, _ = sim.run_world(config)
    assert (sim.process_frame, headend.epoch_tick, decoder.client_process_emm) == originals
    assert check.report_sha256(traced.to_text()) == check.report_sha256(plain.to_text())

    totals = tracer.totals()
    assert all(calls > 0 for calls, _, _, _ in totals.values()), [
        name for name, (calls, _, _, _) in totals.items() if calls == 0]
    for name, (calls, total, own, _) in totals.items():
        assert 0 <= own <= total, name
    assert totals["headend.epoch_tick"][0] == wl.epochs
    assert totals["decoder.process_frame"][0] == wl.epochs * len(wl.decoder_ids)
    epochs = [s for s in tracer.spans if s[0] == "epoch"]
    assert [s[4] for s in epochs] == list(range(wl.epochs))
    assert tracer.layer_metrics()["sim.adversary_probe.suite_us"] > 0


def test_epoch_clock_times_ticks_and_setup():
    wl = workloads.generate("churn-512", 4, epochs=6, per_system=4)
    clock = tracing.EpochClock()
    with clock.installed():
        run_world(parse_scenario(wl.text))
    assert len(clock.ticks) == 6 and clock.ticks == sorted(clock.ticks)
    assert clock.setup_span[0] < clock.setup_span[1] < clock.ticks[0]

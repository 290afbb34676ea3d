"""Pacing: pauses are left out of timed spans, and each stretch between
pauses is scaled by the reference blocks around it."""

import pytest
from cwbind.sim import parse_scenario, run_world

import pace
import tracing
import workloads


def synthetic(blocks_us: list[float], gap: float = 10.0, pause: float = 1.0) -> pace.Pacer:
    """Pauses of ``pause`` s every ``gap`` s, starting at 0, with the given
    block times."""
    pacer = pace.Pacer()
    for j, block_us in enumerate(blocks_us):
        pacer.starts.append(j * gap)
        pacer.ends.append(j * gap + pause)
        pacer.blocks.append(block_us * 1e-6)
    return pacer


def test_span_leaves_out_pauses_and_scales_each_stretch():
    # blocks at half the reference time: the machine ran twice as fast
    pacer = synthetic([pace.REFERENCE_US / 2] * 10)
    measured, scaled = pacer.span(1.0, 35.0)  # three pauses of 1 s inside
    assert measured == pytest.approx(31.0)
    assert scaled == pytest.approx(62.0)
    assert pacer.span(1.0, 10.0) == pytest.approx((9.0, 18.0))


def test_scale_follows_the_blocks_around_the_stretch():
    slow, fast = pace.REFERENCE_US * 2, pace.REFERENCE_US
    pacer = synthetic([slow] * 20 + [fast] * 20)
    assert pacer.span(1.0, 10.0) == pytest.approx((9.0, 4.5))  # among slow blocks
    assert pacer.span(381.0, 390.0) == pytest.approx((9.0, 9.0))  # among fast ones


def test_mark_pauses_only_after_enough_program_time():
    pacer = pace.Pacer(every=3600.0)
    pacer.pause()
    pacer.mark()
    assert len(pacer.blocks) == 1
    pacer.every = 0.0
    pacer.mark()
    assert len(pacer.blocks) == 2 and pacer.starts[1] >= pacer.ends[0]


def test_paced_world_accounts_for_every_pause():
    wl = workloads.generate("churn-512", 4, epochs=6, per_system=4)
    pacer = pace.Pacer(every=0.0)  # pause at every hook
    pacer.pause()
    clock = tracing.EpochClock(pacer)
    with clock.installed():
        run_world(parse_scenario(wl.text))
    assert len(clock.ticks) == len(clock.resumes) == 6
    # one pause before, then one per tick, decoder and enrollment
    assert len(pacer.blocks) == 1 + 6 + 2 * len(wl.decoder_ids)
    setup_start, _ = clock.setup_span
    measured, scaled = pacer.span(setup_start, clock.ticks[-1])
    in_pauses = sum(b - a for a, b in zip(pacer.starts, pacer.ends)
                    if setup_start < a < clock.ticks[-1])
    assert measured == pytest.approx(clock.ticks[-1] - setup_start - in_pauses)
    assert scaled > 0

"""Timing wrappers installed around the simulator's public boundaries.

Nothing under ``src`` is edited. A boundary is wrapped where its name is
looked up: every ``cwbind`` module namespace that binds the original
function gets the wrapper (``sim`` calls ``process_frame`` and ``hemod.epoch_tick``
through its own namespace, ``decoder`` calls ``client_process_emm`` through
its own), and methods are wrapped on their class. Uninstalling restores the
originals.

Two instruments:

* ``EpochClock`` -- the untraced run's only probes: one timestamp per
  ``headend.epoch_tick`` call and the duration of ``sim.build_world``; when
  paced, also the pauses for reference blocks (``pace.py``).
* ``Tracer`` -- the traced run. Coarse boundaries (``run_world``,
  ``build_world``, each epoch, ``process_frame``, ``enroll_receiver`` and
  ``rotate_sender_key``) become spans with a name, start, end and parent;
  the epoch number is the trace id. Boundaries called many times per
  decoder-epoch are aggregated per epoch as (calls, total, self, raised),
  because churn-sized worlds make millions of those calls.

Self time is a call's duration minus the time its traced children cover.
Children run strictly inside their parent on one thread, so the time they
cover is the sum of their durations. A parent is charged for a traced child
from the wrapper's first clock read to its last, plus the calibrated cost of
entering and leaving the wrapper outside those reads (``calibrate``), so the
wrapper's own work lands in no layer's self time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

import pace

# (reported name, module, attribute path of the original)
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("sim.run_world", "cwbind.sim", "run_world"),
    ("sim.build_world", "cwbind.sim", "build_world"),
    ("sim.adversary_step", "cwbind.sim", "adversary_step"),
    ("sim.World.decoder_ids_by_ca", "cwbind.sim", "World.decoder_ids_by_ca"),
    ("sim.BandwidthLedger.add_frame", "cwbind.sim", "BandwidthLedger.add_frame"),
    ("sim.AdversaryState.capture_frame", "cwbind.sim", "AdversaryState.capture_frame"),
    ("sim.AdversaryState.capture_chip_msgs", "cwbind.sim", "AdversaryState.capture_chip_msgs"),
    ("headend.epoch_tick", "cwbind.headend", "epoch_tick"),
    ("headend.authorize", "cwbind.headend", "authorize"),
    ("headend.enroll_receiver", "cwbind.headend", "enroll_receiver"),
    ("headend.rotate_sender_key", "cwbind.headend", "rotate_sender_key"),
    ("decoder.process_frame", "cwbind.decoder", "process_frame"),
    ("decoder.client_process_emm", "cwbind.decoder", "client_process_emm"),
    ("decoder.client_process_ecm", "cwbind.decoder", "client_process_ecm"),
    ("decoder.chip_process", "cwbind.decoder", "chip_process"),
    ("decoder.descramble", "cwbind.decoder", "descramble"),
    ("wire.emm_aad", "cwbind.wire", "emm_aad"),
    ("certproto.phase1_send", "cwbind.certproto", "phase1_send"),
    ("certproto.phase1_receive", "cwbind.certproto", "phase1_receive"),
    ("certproto.phase2_receive", "cwbind.certproto", "phase2_receive"),
    ("bindproto.phase1_send", "cwbind.bindproto", "phase1_send"),
    ("bindproto.phase1_receive", "cwbind.bindproto", "phase1_receive"),
    ("bindproto.phase2_receive", "cwbind.bindproto", "phase2_receive"),
    ("ttp.Directory.receiver_cert", "cwbind.ttp", "Directory.receiver_cert"),
    ("ttp.parse_directory", "cwbind.ttp", "parse_directory"),
    ("ttp.export_directory", "cwbind.ttp", "export_directory"),
    ("ttp.rotate", "cwbind.ttp", "rotate"),
    ("binding.derive_secret", "cwbind.binding", "derive_secret"),
    ("scramble.scramble", "cwbind.scramble", "scramble"),
    ("suite.keygen", "cwbind.suite", "CipherSuite.keygen"),
    ("suite.pke_encrypt", "cwbind.suite", "CipherSuite.pke_encrypt"),
    ("suite.pke_decrypt", "cwbind.suite", "CipherSuite.pke_decrypt"),
    ("suite.sign", "cwbind.suite", "CipherSuite.sign"),
    ("suite.verify_recover", "cwbind.suite", "CipherSuite.verify_recover"),
    ("suite.sym_encrypt", "cwbind.suite", "CipherSuite.sym_encrypt"),
    ("suite.sym_decrypt", "cwbind.suite", "CipherSuite.sym_decrypt"),
    ("suite.seal", "cwbind.suite", "CipherSuite.seal"),
    ("suite.open_sealed", "cwbind.suite", "CipherSuite.open_sealed"),
)

SPAN_NAMES = frozenset({
    "sim.run_world", "sim.build_world", "decoder.process_frame",
    "headend.enroll_receiver", "headend.rotate_sender_key",
})
EPOCH_SPAN = "epoch"
SETUP_TRACE_ID = -1  # everything before the first epoch tick


class Patcher:
    """Replaces functions where they are looked up and restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module: str, path: str, make_wrapper) -> None:
        owner = importlib.import_module(module)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if classes:
            self._set(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cwbind" or mod_name.startswith("cwbind.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class EpochClock:
    """Untraced probes: epoch tick timestamps and ``build_world`` durations.

    ``ticks`` holds when each tick was called, ``resumes`` when the program
    went on, and ``setup_span`` the start and end of ``build_world``. With a
    ``pacer``, epoch ticks, decoder creation and enrollment are the hooks at
    which it may pause for a reference block (``pace.Pacer``).
    """

    def __init__(self, pacer: pace.Pacer | None = None) -> None:
        self.pacer = pacer
        self.ticks: list[float] = []
        self.resumes: list[float] = []
        self.setup_span = (0.0, 0.0)

    @contextmanager
    def installed(self):
        clock, ticks, resumes = time.perf_counter, self.ticks, self.resumes
        mark = self.pacer.mark if self.pacer else None

        def time_ticks(original):
            def epoch_tick(*args, **kwargs):
                ticks.append(clock())
                if mark:
                    mark()
                resumes.append(clock())
                return original(*args, **kwargs)
            return epoch_tick

        def pace_calls(original):
            def paced(*args, **kwargs):
                mark()
                return original(*args, **kwargs)
            return paced

        def time_setup(original):
            def build_world(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.setup_span = (start, clock())
            return build_world

        patcher = Patcher()
        try:
            patcher.wrap("cwbind.headend", "epoch_tick", time_ticks)
            patcher.wrap("cwbind.sim", "build_world", time_setup)
            if mark:
                patcher.wrap("cwbind.decoder", "make_decoder", pace_calls)
                patcher.wrap("cwbind.headend", "enroll_receiver", pace_calls)
            yield self
        finally:
            patcher.restore()


class WrapperCost(NamedTuple):
    """Per-call cost of the traced wrapper, in ns."""

    parent_ns: float  # still charged to the caller: entering and leaving the wrapper
    total_ns: float  # the wrapper's whole cost over a direct call


class Counter:
    __slots__ = ("name", "calls", "total", "self", "raised")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = self.total = self.self = self.raised = 0


class Tracer:
    """Spans and per-epoch aggregates for one world run while installed.

    The call stack holds frames ``[child_ns, counter, span_index]``; its
    bottom frame is a root that absorbs time charged outside any boundary.
    Everything stays in memory until ``dump``.
    """

    def __init__(self, clock=time.perf_counter_ns,
                 cost: WrapperCost = WrapperCost(0.0, 0.0)) -> None:
        self.clock = clock
        self.cost = cost
        self.counters = {name: Counter(name) for name, _, _ in BOUNDARIES}
        self.stack: list[list] = [[0, None, -1]]
        self.open_spans: list[int] = []
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, trace_id, self_ns]
        self.epochs: dict[int, dict[str, list[int]]] = {}
        self.trace_id = SETUP_TRACE_ID
        self.epoch_frame: list | None = None
        self.epoch_start = 0
        self.useful_emms = 0
        self.emms_emitted = 0
        self.probe_suite_ns = 0

    def _push(self, counter: Counter | None, span_name: str | None) -> list:
        span = -1
        if span_name is not None:
            span = len(self.spans)
            parent = self.open_spans[-1] if self.open_spans else -1
            self.spans.append([span_name, 0, 0, parent, self.trace_id, 0])
            self.open_spans.append(span)
        frame = [0, counter, span]
        self.stack.append(frame)
        return frame

    def _pop(self, frame: list, start: int, end: int) -> int:
        """Pop ``frame`` from the stack top and return its self time. The
        caller charges the parent."""
        self.stack.pop()
        own = end - start - frame[0]
        if frame[2] >= 0:
            self.open_spans.pop()
            span = self.spans[frame[2]]
            span[1], span[2], span[5] = start, end, own
        return own

    def _flush(self) -> None:
        """Move the live counters into the current trace id's aggregates."""
        record = self.epochs.setdefault(self.trace_id, {})
        for c in self.counters.values():
            if c.calls:
                prior = record.get(c.name, (0, 0, 0, 0))
                record[c.name] = [prior[0] + c.calls, prior[1] + c.total,
                                  prior[2] + c.self, prior[3] + c.raised]
                c.calls = c.total = c.self = c.raised = 0

    def _end_epoch(self, now: int) -> None:
        if self.epoch_frame is not None:
            self._pop(self.epoch_frame, self.epoch_start, now)
            self.stack[-1][0] += now - self.epoch_start
            self.epoch_frame = None
        self._flush()

    def _wrapper(self, name: str, original, hook=None):
        """Time ``original``. The parent is charged from the wrapper's first
        clock read to its last, plus ``cost.parent_ns`` for the call into and
        the return from the wrapper, so the wrapper's own bookkeeping (and
        ``hook``) lands in no layer's self time."""
        counter = self.counters[name]
        span_name = name if name in SPAN_NAMES else None
        ends_run = name == "sim.run_world"
        clock, stack, parent_ns = self.clock, self.stack, self.cost.parent_ns

        def traced(*args, **kwargs):
            enter = clock()
            if span_name is None:
                frame = [0, counter, -1]
                stack.append(frame)
            else:
                frame = self._push(counter, span_name)
            start = clock()
            try:
                return original(*args, **kwargs)
            except BaseException:
                counter.raised += 1
                raise
            finally:
                end = clock()
                if ends_run:
                    self._end_epoch(end)
                counter.calls += 1
                counter.total += end - start
                counter.self += self._pop(frame, start, end)
                if hook is not None:
                    hook(args, stack[-1], end - start)
                stack[-1][0] += clock() - enter + parent_ns

        return traced

    def _epoch_tick(self, original):
        """Each tick ends the previous epoch span and opens the next one, so
        an epoch covers delivery of its frame plus the next epoch's events."""
        tick = self._wrapper("headend.epoch_tick", original)

        def epoch_tick(headend, *args, **kwargs):
            now = self.clock()
            self._end_epoch(now)
            self.trace_id = headend.epoch
            self.epoch_frame = self._push(None, EPOCH_SPAN)
            self.epoch_start = now
            frame = tick(headend, *args, **kwargs)
            self.emms_emitted += len(frame.emms)
            return frame

        return epoch_tick

    def _count_useful(self, args, parent: list, duration: int) -> None:
        client, emm = args[0], args[1]
        if emm.ca_system_id == client.ca_system_id and (
                emm.is_broadcast() or emm.addressee == client.receiver_id):
            self.useful_emms += 1

    def _probe_suite(self, args, parent: list, duration: int) -> None:
        # the adversary builds its probes in private sim helpers inside the
        # chip filter, so their suite calls sit directly under process_frame
        if parent[1] is self.counters["decoder.process_frame"]:
            self.probe_suite_ns += duration

    def wrap(self, name: str, original):
        """The traced stand-in for boundary ``name``."""
        if name == "headend.epoch_tick":
            return self._epoch_tick(original)
        hook = None
        if name == "decoder.client_process_emm":
            hook = self._count_useful
        elif name.startswith("suite."):
            hook = self._probe_suite
        return self._wrapper(name, original, hook)

    @contextmanager
    def installed(self):
        patcher = Patcher()
        try:
            for name, module, path in BOUNDARIES:
                patcher.wrap(module, path, lambda original, name=name: self.wrap(name, original))
            yield self
        finally:
            patcher.restore()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """(calls, total_ns, self_ns, raised) per boundary."""
        self._flush()
        out = {name: [0, 0, 0, 0] for name, _, _ in BOUNDARIES}
        for record in self.epochs.values():
            for name, values in record.items():
                out[name] = [a + b for a, b in zip(out[name], values)]
        return out

    def unattributed_ns(self) -> int:
        """Time inside runs, outside set-up, that no traced boundary covers."""
        return sum(span[5] for span in self.spans
                   if span[0] in (EPOCH_SPAN, "sim.run_world"))

    def layer_metrics(self) -> dict[str, float]:
        totals = self.totals()
        out: dict[str, float] = {}
        for name, (calls, total, own, _) in totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.us"] = total / 1e3
            out[f"{name}.self_us"] = own / 1e3
        emm_calls = totals["decoder.client_process_emm"][0]
        chip_calls, _, _, chip_raised = totals["decoder.chip_process"]
        ticks = totals["headend.epoch_tick"][0]
        out["decoder.emm_useful_ratio"] = self.useful_emms / emm_calls if emm_calls else 0.0
        out["decoder.chip_reject_ratio"] = chip_raised / chip_calls if chip_calls else 0.0
        out["headend.emms_per_frame"] = self.emms_emitted / ticks if ticks else 0.0
        out["sim.adversary_probe.suite_us"] = self.probe_suite_ns / 1e3
        out["trace.unattributed_us"] = self.unattributed_ns() / 1e3
        run_ns = totals["sim.run_world"][1]
        wrapped_calls = sum(values[0] for values in totals.values())
        out["trace.wrapper_share"] = (wrapped_calls * self.cost.total_ns / run_ns
                                      if run_ns else 0.0)
        return out

    def dump(self) -> dict:
        self._flush()
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "trace_id", "self_ns"],
            "spans": self.spans,
            "aggregate_fields": ["calls", "total_ns", "self_ns", "raised"],
            "epochs": {str(k): v for k, v in sorted(self.epochs.items())},
        }


def calibrate() -> WrapperCost:
    """Measure the traced wrapper around an empty two-argument function.

    A loop of N wrapped calls takes N x (loop step + ``parent_ns``) plus the
    time charged from the wrapper's clock reads; an empty loop gives the loop
    step, and a loop of direct calls the baseline for ``total_ns``. Each
    figure is the median over 7 rounds of 20,000 calls.
    """
    def empty(a, b):
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("wire.emm_aad", empty)
    root = tracer.stack[0]
    clock = time.perf_counter_ns
    calls = 20_000
    loop = range(calls)
    parent: list[float] = []
    total: list[float] = []
    for _ in range(7):
        t0 = clock()
        for _ in loop:
            pass
        t1 = clock()
        for _ in loop:
            empty(1, 2)
        t2 = clock()
        root[0] = 0
        for _ in loop:
            wrapped(1, 2)
        t3 = clock()
        parent.append((t3 - t2 - root[0] - (t1 - t0)) / calls)
        total.append((t3 - t2 - (t2 - t1)) / calls)
    return WrapperCost(max(0.0, statistics.median(parent)), max(0.0, statistics.median(total)))

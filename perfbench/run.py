"""cwbind benchmark: seeded SimulCrypt worlds, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Each run generates the workload's ``.scn`` text from the seed, hands it to
``sim.parse_scenario`` and ``sim.run_world`` (the only way the program sees
it) and repeats whole worlds, one after another in this one process, until
``--seconds`` have passed. Every report is checked by ``check.py``.

``--trace 0`` measures the end-to-end metrics; the only probes are a
timestamp per epoch tick and the ``build_world`` duration. Its times are
scaled to a reference speed by a fixed block run next to the program
(``pace.py``), so that the machine's drifting speed does not move them; the
times as measured are printed and written out too. ``--trace 1``
alternates untraced and traced worlds and reports per-layer metrics from the
traced ones, plus the tracing overhead. Every result is written under
``perfbench/results/``; the last stdout line is the JSON result. The exit
status is 1 when any report failed its check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# end-to-end metric -> unit; BENCHMARK.json gates the ones every workload has
E2E_UNITS = {
    "setup_s": "s",
    "us_per_decoder_epoch": "us",
    "epoch_ms_p50": "ms",
    "epoch_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "broadcast_bytes_per_epoch": "bytes",
}
EXTRA_UNITS = {"fail_ratio": "ratio", "report_mismatches": "count", "rekey_ms_p50": "ms"}
GATED_LAYER_TIMES_EXCLUDED = ("sim.adversary_step", "headend.rotate_sender_key", "ttp.rotate")
# the layers expected to hold the largest self time on each workload
PREDICTED_TOP = {
    "steady-simulcrypt": ("scramble.scramble", "suite.sym_encrypt", "suite.sym_decrypt",
                          "suite.seal", "suite.open_sealed"),
    "churn-512": ("decoder.client_process_emm", "wire.emm_aad"),
    "rekey-attack": ("suite.keygen", "suite.pke_encrypt", "suite.pke_decrypt",
                     "suite.sign", "suite.verify_recover"),
}
WARMUP_SIZE = {"epochs": 30, "per_system": 8}  # every shape, few decoders


def import_program():
    """Import ``cwbind`` from this checkout's ``src``; anything else is an error."""
    from cwbind import sim

    if Path(sim.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"cwbind imported from {sim.__file__}, not from {ROOT / 'src'}")
    return sim


def environment(seed: int) -> dict:
    import cryptography

    src = ROOT / "src" / "cwbind"
    return {
        "src_cwbind_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "machine": platform.machine(),
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


@dataclass
class Times:
    """Per-world timings of the untraced worlds of one run."""

    setups: list[float] = field(default_factory=list)  # s
    per_decoder_epoch_us: list[float] = field(default_factory=list)
    intervals_ms: list[float] = field(default_factory=list)
    rekey_ms: list[float] = field(default_factory=list)

    def add(self, i: int, setup, loop, intervals, rekeys, decoder_epochs: int) -> None:
        """Append field ``i`` of each ``pace.Pacer.span`` result."""
        self.setups.append(setup[i])
        self.per_decoder_epoch_us.append(loop[i] * 1e6 / decoder_epochs)
        self.intervals_ms += [span[i] * 1e3 for span in intervals]
        self.rekey_ms += [span[i] * 1e3 for span in rekeys]

    def summary(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setups),
            "us_per_decoder_epoch": statistics.median(self.per_decoder_epoch_us),
            "epoch_ms_p50": statistics.median(self.intervals_ms),
            "epoch_ms_p90": p90(self.intervals_ms),
        }


class Run:
    """Checks reports and accumulates per-world measurements for one workload."""

    def __init__(self, sim, workload: workloads.Workload, seed: int) -> None:
        self.sim = sim
        self.workload = workload
        self.seed = seed
        self.config = sim.parse_scenario(workload.text)
        self.pinned = (workloads.PINNED_SHA256.get(workload.name)
                       if seed == workloads.DEFAULT_SEED else None)
        self.first_hash: str | None = None
        self.decoder_epochs = 0
        self.failures = 0
        self.mismatches = 0
        self.problems: list[str] = []
        self.broadcast_bytes: int | None = None
        self.scaled = Times()  # at the reference speed; these are gated
        self.measured = Times()  # the same times before scaling
        self.reference_blocks_us: list[float] = []

    def world(self, tracer: tracing.Tracer | None = None) -> float:
        """Run one world; return its epoch-loop µs per decoder-epoch as
        measured, without the reference blocks.

        An untraced world is paced (see ``pace.py``) and its times are
        recorded both at the reference speed and as measured."""
        gc.collect()
        pacer = pace.Pacer() if tracer is None else None
        for _ in range(2 * pace.WINDOW if pacer else 0):
            pacer.pause()
        clock = tracing.EpochClock(pacer)
        with clock.installed(), tracer.installed() if tracer else nullcontext():
            start = time.perf_counter()
            report, _ = self.sim.run_world(self.config)
            end = time.perf_counter()
        self._check(report.to_text())
        decoder_epochs = len(self.config.decoders) * self.config.epochs
        setup_start, setup_end = clock.setup_span
        if pacer is None:
            return (end - start - (setup_end - setup_start)) * 1e6 / decoder_epochs

        setup = pacer.span(setup_start, setup_end)
        loop = pacer.span(setup_end, end)
        # the interval between ticks e and e+1, and the one around tick e
        intervals = [pacer.span(a, b) for a, b in zip(clock.resumes, clock.ticks[1:])]
        rekeys = [pacer.span(clock.resumes[e - 1], clock.ticks[e + 1])
                  for e in self.workload.rekey_epochs]
        self.measured.add(0, setup, loop, intervals, rekeys, decoder_epochs)
        self.scaled.add(1, setup, loop, intervals, rekeys, decoder_epochs)
        self.reference_blocks_us += [b * 1e6 for b in pacer.blocks]
        return loop[0] * 1e6 / decoder_epochs

    def _check(self, text: str) -> None:
        result = check.check_report(text, self.workload, self.seed)
        self.decoder_epochs += result.decoder_epochs
        self.failures += result.failures
        self.problems += result.problems
        self.broadcast_bytes = result.broadcast_bytes
        digest = check.report_sha256(text)
        if self.first_hash is None:
            self.first_hash = digest
        if digest != self.first_hash or (self.pinned is not None and digest != self.pinned):
            self.mismatches += 1

    @property
    def correct(self) -> bool:
        return self.failures == 0 and self.mismatches == 0 and not self.problems

    def end_to_end(self) -> dict[str, float]:
        return {
            **self.scaled.summary(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "broadcast_bytes_per_epoch": self.broadcast_bytes / self.config.epochs,
        }

    def as_measured(self) -> dict[str, float]:
        """The gated times before scaling, and the reference block's median."""
        return {**self.measured.summary(),
                "reference_block_us": statistics.median(self.reference_blocks_us)}

    def extras(self) -> dict[str, float]:
        """Reported and written out, but not gated in BENCHMARK.json."""
        out = {
            "fail_ratio": self.failures / self.decoder_epochs if self.decoder_epochs else 1.0,
            "report_mismatches": self.mismatches,
        }
        if self.scaled.rekey_ms:
            out["rekey_ms_p50"] = statistics.median(self.scaled.rekey_ms)
        return out

    def samples(self) -> dict[str, int]:
        return {"worlds": len(self.scaled.setups), "epoch_intervals": len(self.scaled.intervals_ms),
                "rekey_windows": len(self.scaled.rekey_ms)}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(("_us", ".us")):
        return "us"
    return "ratio"


def gated_layer_metrics() -> list[str]:
    """The per-layer metrics BENCHMARK.json lists: every boundary's call
    count, times of the boundaries that every workload reaches, and ratios."""
    names = []
    for name, _, _ in tracing.BOUNDARIES:
        names.append(f"{name}.calls")
        if name not in GATED_LAYER_TIMES_EXCLUDED:
            names += [f"{name}.us", f"{name}.self_us"]
    return names + ["decoder.emm_useful_ratio", "decoder.chip_reject_ratio",
                    "headend.emms_per_frame", "trace.overhead_ratio", "trace.unattributed_us",
                    "trace.wrapper_share"]


def measure(sim, name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.generate(name, seed)
    warmup = Run(sim, workloads.generate(name, seed, **WARMUP_SIZE), seed)
    warmup.world()
    run = Run(sim, workload, seed)
    start = time.perf_counter()
    layers: list[dict[str, float]] = []
    first_trace: dict | None = None
    overheads: list[float] = []
    costs: list[tracing.WrapperCost] = []
    last = 0.0
    # stop when the next round would likely end more than half a round late
    while not run.scaled.setups or time.perf_counter() - start + last / 2 < seconds:
        round_start = time.perf_counter()
        untraced_us = run.world()
        if traced:
            # calibrated next to each traced world: the machine's speed drifts
            tracer = tracing.Tracer(cost=tracing.calibrate())
            costs.append(tracer.cost)
            traced_us = run.world(tracer)
            layers.append(tracer.layer_metrics())
            if first_trace is None:
                first_trace = tracer.dump()
            overheads.append(traced_us / untraced_us)
        last = time.perf_counter() - round_start

    result = {
        "workload": name,
        "why": workload.why,
        "environment": environment(seed),
        "samples": run.samples(),
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in run.end_to_end().items()},
        "checks": {k: {"value": v, "unit": EXTRA_UNITS[k]} for k, v in run.extras().items()},
        "as_measured": run.as_measured(),
        "per_world": {"setup_s": run.scaled.setups,
                      "us_per_decoder_epoch": run.scaled.per_decoder_epoch_us,
                      "measured_setup_s": run.measured.setups,
                      "measured_us_per_decoder_epoch": run.measured.per_decoder_epoch_us},
        "problems": run.problems[:20],
        "correct": run.correct,
        "attempted": run.decoder_epochs,
        "failed": run.failures,
    }
    if traced:
        per_layer = {key: statistics.median(world[key] for world in layers) for key in layers[0]}
        per_layer["trace.overhead_ratio"] = statistics.median(overheads)
        result["per_layer"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer.items()}
        result["traced_worlds"] = len(layers)
        result["wrapper_cost_ns"] = {k: statistics.median(c[i] for c in costs)
                                     for i, k in enumerate(tracing.WrapperCost._fields)}
        trace_path = RESULTS / f"{name}-seed{seed}.trace.json"
        # one world's spans and aggregates; every traced world feeds per_layer
        trace_path.write_text(json.dumps({"workload": name, "seed": seed, **first_trace}))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def print_human(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}: {result['why']}")
    print(f"   samples {result['samples']}  src/cwbind lines "
          f"{result['environment']['src_cwbind_lines']}")
    for section in ("end_to_end", "checks"):
        for key, metric in result[section].items():
            print(f"   {key:28s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"   times above are at the reference speed ({pace.REFERENCE_US:g} us per block); "
          "as measured:")
    for key, value in result["as_measured"].items():
        print(f"   {key:28s} {value:>14.6g}")
    for problem in result["problems"]:
        print(f"   PROBLEM {problem}")
    if "per_layer" in result:
        print_layers(result["per_layer"], result["traced_worlds"], PREDICTED_TOP[name])


def print_layers(per_layer: dict, worlds: int, predicted: tuple[str, ...]) -> None:
    traced_us = per_layer["sim.run_world.us"]["value"]
    wrapper_us = traced_us * per_layer["trace.wrapper_share"]["value"]
    run_us = traced_us - wrapper_us
    rows = [(key[: -len(".self_us")], m["value"]) for key, m in per_layer.items()
            if key.endswith(".self_us") and not key.startswith("sim.run_world")]
    rows.sort(key=lambda kv: -kv[1])
    print(f"   per layer, median of {worlds} traced world(s); self time share of "
          f"run_world less the wrapper cost ({wrapper_us:.0f} of {traced_us:.0f} us):")
    for layer, own in rows:
        calls = per_layer[f"{layer}.calls"]["value"]
        inclusive = per_layer[f"{layer}.us"]["value"]
        if calls:
            print(f"     {layer:38s} calls {calls:>10.0f}  us {inclusive:>12.0f}  "
                  f"self_us {own:>12.0f}  {100 * own / run_us:5.1f}%")
    unattributed = per_layer["trace.unattributed_us"]["value"]
    print(f"     {'(unattributed run time)':38s} {unattributed:>42.0f}  "
          f"{100 * unattributed / run_us:5.1f}%")
    for key in ("decoder.emm_useful_ratio", "decoder.chip_reject_ratio",
                "headend.emms_per_frame", "sim.adversary_probe.suite_us", "trace.overhead_ratio",
                "trace.wrapper_share"):
        print(f"     {key:38s} {per_layer[key]['value']:.6g}")
    top = rows[0][0]
    verdict = "as predicted" if top in predicted else "contradicts the prediction"
    print(f"   largest self-time layer: {top} ({verdict}: {', '.join(predicted)})")


def result_line(result: dict, traced: bool) -> dict:
    if traced:
        metrics = {k: result["per_layer"][k] for k in gated_layer_metrics()}
    else:
        metrics = result["end_to_end"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        # one process per workload, so each reports its own peak RSS
        return max(subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.GENERATORS)

    sim = import_program()
    RESULTS.mkdir(exist_ok=True)
    result = measure(sim, args.workload, args.seed, args.seconds, bool(args.trace))
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print_human(result)
    print(json.dumps(result_line(result, bool(args.trace))), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Independent checker for simulator reports.

Parses the text report itself and judges every decoder-epoch against the
schedule the workload generator modelled. It imports nothing from
``cwbind``: a report is right only if it agrees with a model that shares no
code with the simulator.

A decoder-epoch fails when an authorized decoder that nobody interfered with
does not descramble (``K``), or when an unauthorized decoder does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from workloads import Workload


@dataclass
class Report:
    header: dict[str, str]
    ca_kinds: list[str]
    decoder_ids: list[int]
    rows: list[tuple[int, frozenset[int], frozenset[int], dict[int, str]]]
    bandwidth: dict[str, int]
    verdicts: dict[str, str]


@dataclass
class CheckResult:
    decoder_epochs: int
    failures: int
    broadcast_bytes: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0 and not self.problems


def report_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _id_set(field_text: str) -> frozenset[int]:
    return frozenset() if field_text == "-" else frozenset(int(i) for i in field_text.split(","))


def parse_report(text: str) -> Report:
    """Parse report text; raises ``ValueError`` on anything malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "cwbind-report 1":
        raise ValueError("not a cwbind report")
    report = Report({}, [], [], [], {}, {})
    for line in lines[1:]:
        head, _, rest = line.partition(" ")
        if head in ("scenario", "seed", "epochs", "secret-bits"):
            report.header[head] = rest
        elif head == "ca":
            index, kind = rest.split()
            if int(index) != len(report.ca_kinds):
                raise ValueError(f"ca line out of order: {line!r}")
            report.ca_kinds.append(kind)
        elif head == "decoders":
            report.decoder_ids = [int(i) for i in rest.split()]
        elif head == "epoch":
            f = rest.split()
            if f[1] != "auth" or f[3] != "interfered" or f[5] != "outcomes":
                raise ValueError(f"malformed epoch row: {line!r}")
            outcomes = {}
            for item in f[6:]:
                decoder, outcome = item.split("=")
                outcomes[int(decoder)] = outcome
            report.rows.append((int(f[0]), _id_set(f[2]), _id_set(f[4]), outcomes))
        elif head == "bandwidth":
            kind, value = rest.split()
            report.bandwidth[kind] = int(value)
        elif head == "verdict":
            name, value = rest.split()
            report.verdicts[name] = value
        else:
            raise ValueError(f"unknown report line: {line!r}")
    return report


def check_report(text: str, workload: Workload, seed: int) -> CheckResult:
    """Judge one report against the workload's modelled schedule."""
    try:
        report = parse_report(text)
    except ValueError as exc:
        return CheckResult(0, 0, 0, [f"unparseable report: {exc}"])
    problems = []
    expected_header = {"scenario": workload.name, "seed": str(seed),
                       "epochs": str(workload.epochs)}
    for key, value in expected_header.items():
        if report.header.get(key) != value:
            problems.append(f"header {key} is {report.header.get(key)!r}, expected {value!r}")
    if report.ca_kinds != list(workload.ca_kinds):
        problems.append(f"CA systems {report.ca_kinds}, expected {list(workload.ca_kinds)}")
    if report.decoder_ids != sorted(workload.decoder_ids):
        problems.append("decoder list differs from the workload")
    if [row[0] for row in report.rows] != list(range(workload.epochs)):
        problems.append(f"epoch rows are not 0..{workload.epochs - 1}, each once and in order")

    decoder_epochs = failures = 0
    for epoch, auth, interfered, outcomes in report.rows:
        if not 0 <= epoch < workload.epochs:
            problems.append(f"row for epoch {epoch} outside the run")
            continue
        want_auth = workload.authorized[epoch]
        want_interfered = workload.interfered[epoch]
        if auth != want_auth:
            problems.append(f"epoch {epoch}: authorized set differs from the schedule")
        if interfered != want_interfered:
            problems.append(f"epoch {epoch}: interfered set differs from the schedule")
        if set(outcomes) != set(workload.decoder_ids):
            problems.append(f"epoch {epoch}: outcomes do not cover every decoder")
        for decoder, outcome in outcomes.items():
            if outcome not in ("K", "R", "X"):
                problems.append(f"epoch {epoch}: unknown outcome {outcome!r}")
            decoder_epochs += 1
            if decoder in want_auth:
                failures += decoder not in want_interfered and outcome != "K"
            else:
                failures += outcome == "K"

    for name, value in workload.verdicts.items():
        if report.verdicts.get(name) != value:
            problems.append(f"verdict {name} is {report.verdicts.get(name)!r}, expected {value!r}")
    broadcast = sum(report.bandwidth.get(k, 0)
                    for k in ("ecm", "emm-broadcast", "emm-receiver", "content"))
    return CheckResult(decoder_epochs, failures, broadcast, problems)

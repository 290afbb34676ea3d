#!/usr/bin/env python3
"""Compare the certificate and binding protocols on the shipped runs.

Each pair of shipped scenarios named below differs only in its protocol:
same seed, population and schedule. ``matrix()`` runs each scenario once
and reads every cell from its run's report; none is typed in.

The ``baseline`` pair gives the byte ledgers. ECM traffic is equal: both
protocols ship one secret per epoch under the same protection. The binding
protocol's broadcast EMMs are smaller because it announces a bare public
key where the certificate protocol announces a full certificate. Chip-channel
bytes move inside each decoder and never count toward broadcast.

The ``recovery`` pair compromises everything but the chips, recovers, and
then probes decoders with the best pirate message sets the adversary's
remaining knowledge allows. The binding protocol recovers by rotating keys
and re-enrolling, with no decoder touched. The certificate protocol cannot:
every chip trusts the retired authority key, with which the adversary can
mint sender certificates forever, so every decoder is replaced.
"""

from pathlib import Path

from cwbind.sim import RunReport, load_scenario, run_world

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PROTOCOLS = {"cert": "certificate", "bind": "binding"}


def probes_rejected(report: RunReport) -> tuple[int, int]:
    """(probes that did not derive, probes): one probe per epoch in which a
    probed decoder's chip messages were interfered with."""
    probed = {int(event.args[-1]) for event in report.config.events
              if event.verb == "pirate-probe"}
    outcomes = []
    for row in report.rows:
        _, interfered, codes = report.decode(row)
        outcomes += [codes[decoder] for decoder in probed & interfered]
    return sum(outcome != "K" for outcome in outcomes), len(outcomes)


# row name -> (scenario pair, its cell from one run's report)
ROWS = {
    "ecm": ("baseline", lambda report: report.ledger.ecm),
    "emm-broadcast": ("baseline", lambda report: report.ledger.emm_broadcast),
    "emm-receiver": ("baseline", lambda report: report.ledger.emm_receiver),
    "content": ("baseline", lambda report: report.ledger.content),
    "broadcast total": ("baseline", lambda report: report.ledger.broadcast_total()),
    "chip-channel (in-decoder)": ("baseline", lambda report: report.ledger.chip_channel),
    "decoders replaced": ("recovery", lambda report: report.decoders_replaced),
    "recovery success": ("recovery", lambda report: report.recovery_success),
    "pirate probes rejected": ("recovery", probes_rejected),
    "authenticity violations": ("recovery", lambda report: report.authenticity_violations),
}


def matrix() -> dict[str, dict[str, object]]:
    """Row name -> {protocol: cell}, from one run of each scenario."""
    reports = {(pair, protocol): run_world(load_scenario(SCENARIOS / f"{pair}-{protocol}.scn"))[0]
               for pair in dict.fromkeys(pair for pair, _ in ROWS.values())
               for protocol in PROTOCOLS}
    return {name: {protocol: cell(reports[pair, protocol]) for protocol in PROTOCOLS}
            for name, (pair, cell) in ROWS.items()}


def main() -> None:
    width = max(map(len, ROWS))
    print(" " * width + "".join(f" {title:>12}" for title in PROTOCOLS.values()))
    print("-" * (width + 13 * len(PROTOCOLS)))
    for name, cells in matrix().items():
        texts = ("/".join(map(str, cell)) if isinstance(cell, tuple) else cell
                 for cell in cells.values())
        print(name.ljust(width) + "".join(f" {text!s:>12}" for text in texts))


if __name__ == "__main__":
    main()

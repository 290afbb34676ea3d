#!/usr/bin/env python3
"""Compare broadcast bandwidth between the two protocols on identical runs.

Runs the two baseline scenarios (same seed, same population, same schedule,
only the protocol differs) and prints the per-class byte ledgers side by
side. ECM traffic is byte-identical: both protocols ship one n-bit secret
per epoch under the same protection. The binding protocol's broadcast EMMs
are smaller because it announces a bare public key where the certificate
protocol announces a full certificate. The chip-channel column never counts
toward broadcast: those bytes move inside each decoder.
"""

from pathlib import Path

from cwbind.sim import load_scenario, run_world

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main() -> None:
    reports = {
        stem: run_world(load_scenario(SCENARIOS / f"{stem}.scn"))[0]
        for stem in ("baseline-cert", "baseline-bind")
    }
    rows = [
        ("ecm", lambda l: l.ecm),
        ("emm-broadcast", lambda l: l.emm_broadcast),
        ("emm-receiver", lambda l: l.emm_receiver),
        ("content", lambda l: l.content),
        ("broadcast total", lambda l: l.broadcast_total()),
        ("chip-channel (in-decoder)", lambda l: l.chip_channel),
    ]
    width = max(len(name) for name, _ in rows)
    print(f"{'class'.ljust(width)} {'certificate':>12} {'binding':>12}")
    print("-" * (width + 27))
    for name, getter in rows:
        cert = getter(reports["baseline-cert"].ledger)
        bind = getter(reports["baseline-bind"].ledger)
        print(f"{name.ljust(width)} {cert:>12} {bind:>12}")

    cert_ledger = reports["baseline-cert"].ledger
    bind_ledger = reports["baseline-bind"].ledger
    assert cert_ledger.ecm == bind_ledger.ecm
    assert bind_ledger.emm_broadcast <= cert_ledger.emm_broadcast
    print("\nECM parity holds; binding broadcast EMMs are no larger than certificate ones.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the recovery scenarios for both protocols and print the contrast.

Both runs compromise every system component except the content decryption
chips at epoch 50 (authority private key, sender keys, one CA client, an
ongoing control-word tap) and recover at epoch 60. From epoch 61 the
adversary probes decoder 8 every epoch with the best pirate message set its
remaining knowledge allows.

The binding protocol restores security by rotating keys and re-enrolling:
no decoder is touched. The certificate protocol cannot: every chip trusts
the retired authority key, with which the adversary can mint sender
certificates forever, so the entire decoder population is replaced.
"""

from pathlib import Path

from cwbind.sim import load_scenario, run_world

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def summarize(stem: str) -> None:
    report = run_world(load_scenario(SCENARIOS / f"{stem}.scn"))[0]
    rows = [(row.epoch, *report.decode(row)) for row in report.rows]
    probe_rows = [outcomes for _, _, interfered, outcomes in rows if 8 in interfered]
    probe_fail = sum(1 for outcomes in probe_rows if outcomes[8] != "K")
    honest_post = all(
        outcomes[d] == "K"
        for epoch, authorized, interfered, outcomes in rows
        if epoch >= 60
        for d in authorized - interfered
    )
    print(f"{stem}:")
    print(f"  decoders replaced:        {report.decoders_replaced}")
    print(f"  recovery success:         {report.recovery_success}")
    print(f"  post-recovery honest:     {honest_post}")
    print(f"  pirate probes rejected:   {probe_fail}/{len(probe_rows)}")
    print(f"  authenticity violations:  {report.authenticity_violations}")


def main() -> None:
    for stem in ("recovery-bind", "recovery-cert"):
        summarize(stem)
        print()


if __name__ == "__main__":
    main()

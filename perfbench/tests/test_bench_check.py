"""The report checker flags what it must flag."""

import pytest
from cwbind.sim import parse_scenario, run_world

import check
import workloads


@pytest.fixture(scope="module")
def steady():
    wl = workloads.generate("steady-simulcrypt", 2, epochs=8, per_system=8)
    report, _ = run_world(parse_scenario(wl.text))
    return wl, report.to_text()


def _flip(text: str, epoch: int, decoder: int, new: str) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(f"epoch {epoch} "):
            head, _, outcomes = line.partition(" outcomes ")
            items = [f"{decoder}={new}" if item.startswith(f"{decoder}=") else item
                     for item in outcomes.split()]
            lines[i] = head + " outcomes " + " ".join(items) + "\n"
    return "".join(lines)


def test_clean_report_passes(steady):
    wl, text = steady
    assert check.check_report(text, wl, 2).ok


def test_one_authorized_decoder_losing_the_word_is_one_failure(steady):
    wl, text = steady
    decoder = min(wl.authorized[3])
    result = check.check_report(_flip(text, 3, decoder, "R"), wl, 2)
    assert result.failures == 1
    assert not result.ok


def test_one_unauthorized_decoder_gaining_the_word_is_one_failure(steady):
    wl, text = steady
    decoder = min(set(wl.decoder_ids) - wl.authorized[4])
    result = check.check_report(_flip(text, 4, decoder, "K"), wl, 2)
    assert result.failures == 1


def test_interfered_authorized_decoder_may_miss_the_word():
    wl = workloads.generate("rekey-attack", 3, epochs=30, per_system=8)
    report, _ = run_world(parse_scenario(wl.text))
    assert check.check_report(report.to_text(), wl, 3).ok


def test_schedule_and_verdict_disagreements_are_problems(steady):
    wl, text = steady
    assert check.check_report(text.replace("implicit-key-auth pass", "implicit-key-auth fail"),
                              wl, 2).problems
    first_row = next(line for line in text.splitlines() if line.startswith("epoch 0 "))
    auth = first_row.split()[3]
    bad = text.replace(first_row, first_row.replace(f" auth {auth} ", " auth - ", 1))
    assert any("authorized set" in p for p in check.check_report(bad, wl, 2).problems)
    assert check.check_report(text, wl, 3).problems  # wrong seed in the header
    assert not check.check_report("garbage\n", wl, 2).ok


def test_wrong_ca_kinds_and_repeated_epoch_rows_are_problems(steady):
    wl, text = steady
    swapped = text.replace("ca 3 legacy", "ca 3 cert")
    assert any("CA systems" in p for p in check.check_report(swapped, wl, 2).problems)
    row0 = next(line for line in text.splitlines() if line.startswith("epoch 0 "))
    row1 = next(line for line in text.splitlines() if line.startswith("epoch 1 "))
    # same row count, epoch 0 twice and epoch 1 missing
    repeated = text.replace(row1, row0)
    assert any("epoch rows" in p for p in check.check_report(repeated, wl, 2).problems)


def test_report_hash_is_sha256_of_text():
    assert check.report_sha256("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

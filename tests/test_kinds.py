"""CA kinds: one record per kind is the only place kinds differ."""

import ast
import copy
import functools
from pathlib import Path

import pytest

from cwbind import bindproto, certproto
from cwbind.decoder import make_decoder
from cwbind.encoding import encode_id
from cwbind.kinds import BIND, CA_KINDS, CERT, LEGACY, ca_kind
from cwbind.suite import Drbg
from cwbind.wire import BROADCAST_KINDS, EmmKind

SRC = Path(__file__).resolve().parent.parent / "src" / "cwbind"


@functools.lru_cache(maxsize=1)
def _trees() -> tuple:
    return tuple((path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")))


def test_kind_names_are_literals_only_in_the_kind_module():
    # every other module reads the record's fields instead of comparing names
    found = [
        (name, node.lineno)
        for name, tree in _trees() if name != "kinds.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in CA_KINDS
    ]
    assert found == []


def test_only_the_scenario_resolves_a_kind_name():
    # a scenario turns its kind names into records once; the head-end and
    # the decoders are handed records and never look a name up
    callers = {
        name
        for name, tree in _trees() if name != "kinds.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "ca_kind"
    }
    assert callers == {"sim.py"}


def test_no_isinstance_test_names_a_chip_class():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                named = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.args[1])
                         if isinstance(n, (ast.Name, ast.Attribute))}
                found += [(name, node.lineno) for n in named if n.endswith("ChipState")]
    assert found == []


@pytest.mark.parametrize("name", sorted(CA_KINDS))
def test_decoder_deepcopy_keeps_the_kind_record(suite, name):
    master = Drbg.from_int(0x7D)
    authority_pk = suite.keygen("sig", master.child("ttp")).public_key
    decoder = make_decoder(suite, ca_kind(name), 0, encode_id(1), master.child("chip"),
                           b"\x00" * 16, authority_generation=1, authority_pk=authority_pk)
    copied = copy.deepcopy(decoder)
    assert copied.chip.kind is decoder.chip.kind is decoder.client.kind is ca_kind(name)
    assert copied.client.kind is ca_kind(name)
    assert copied == decoder


def test_records_say_how_kinds_differ():
    assert (CERT.proto, BIND.proto, LEGACY.proto) == (certproto, bindproto, None)
    assert CERT.certified and not BIND.certified and not LEGACY.certified
    assert BIND.binds and not CERT.binds and not LEGACY.binds
    assert CERT.announce in CERT.acts_on and BIND.announce in BIND.acts_on
    assert EmmKind.CRL_UPDATE in CERT.acts_on and EmmKind.PK_SET_UPDATE in BIND.acts_on
    assert CERT.acts_on | BIND.acts_on == BROADCAST_KINDS and not LEGACY.acts_on
    with pytest.raises(ValueError):
        ca_kind("bogus")

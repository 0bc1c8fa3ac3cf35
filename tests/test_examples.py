"""Every ``examples/*.py`` runs, and prints the fact its story rests on."""

import re
import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def _ints(pattern, out):
    match = re.search(pattern, out)
    assert match, f"{pattern!r} not printed"
    return [int(group) for group in match.groups()]


def _quickstart(out):
    # Fig. 1: SW4 -> SW7 -> SW11 on ports 0, 2, 0 is route ID 44.
    assert _ints(r"unprotected route id R = (\d+) ", out) == [44]


def _service_chaining(out):
    sent, delivered = _ints(r"sent (\d+), delivered (\d+) ", out)
    assert sent == delivered > 0
    assert _ints(r"firewall processed (\d+), DPI processed (\d+)", out) == [sent, sent]


def _fifteen_node_failover(out):
    # Fig. 4's shape: NIP keeps the most throughput, no deflection none.
    share = {
        name: float(pct)
        for name, pct in re.findall(r"^  (\w+) *: .*\( *([\d.]+)%\) during", out, re.M)
    }
    assert share["nip"] > share["avp"] > share["hp"] > share["none"] == 0.0


def _rnp_backbone(out):
    # SW7-SW13 leaves one deflection candidate, a forced hop: the probe loses
    # nothing.
    delivered, sent = _ints(r"SW7-SW13: delivered (\d+)/(\d+) ", out)
    assert delivered == sent > 0


def _custom_topology(out):
    delivered, sent = _ints(r"protection='planned'.*: delivered (\d+)/(\d+) ", out)
    assert delivered == sent > 0


FACTS = {
    "quickstart": _quickstart,
    "service_chaining": _service_chaining,
    "fifteen_node_failover": _fifteen_node_failover,
    "rnp_backbone": _rnp_backbone,
    "custom_topology": _custom_topology,
}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_prints_its_fact(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    FACTS[path.stem](capsys.readouterr().out)

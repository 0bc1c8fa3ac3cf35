"""Production decision kernel vs the paper pseudocode, as whole DES runs.

Each test runs the same seeded workload twice on a random topology with
a random failure schedule — once with every switch deciding through
:mod:`repro.switches.deflection`, once through the transcription in
:mod:`repro.verify.pseudocode` — and requires identical hop-by-hop
traces and identical outcome records (counters, drop reasons, event
count, final RNG states).  The kernel may not differ from Algorithm 1
by even one RNG draw.
"""

import pytest

from repro.switches.deflection import STRATEGY_NAMES
from repro.verify.oracles import PseudocodeStrategy

from tests.integration.test_datapath_golden import (
    SEEDS,
    hop_traces,
    make_scenario,
    outcome_record,
    random_failures,
    run_des,
)


class TestVsPseudocode:
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_on_random_topology(self, seed, strategy):
        scenario = make_scenario(
            seed, num_switches=12, extra_links=2 + seed % 5
        )
        failures = random_failures(scenario, seed)
        ks_spec, src, sink = run_des(
            scenario, strategy, seed, failures,
            strategy_factory=lambda switch: PseudocodeStrategy(
                strategy, scenario.graph.degree(switch)
            ),
        )
        spec = outcome_record(ks_spec, src, sink)
        ks, src, sink = run_des(scenario, strategy, seed, failures)
        assert outcome_record(ks, src, sink) == spec
        assert hop_traces(ks) == hop_traces(ks_spec)

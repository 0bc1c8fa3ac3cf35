"""Property suite: decision-by-decision engine equivalence.

Hypothesis draws random topologies, strategies and failure schedules;
for every draw the two epoch engines must agree on each packet's
output ports, per-hop deflected flags and final fate, and on every
switch's RNG stream position — not merely on aggregate counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.vector import (
    build_workload,
    run_epoch_reference,
    run_epoch_vector,
    synthetic_spec,
)

fields = dict(
    num_switches=st.integers(min_value=4, max_value=24),
    extra_links=st.integers(min_value=0, max_value=4),
    min_switch_id=st.sampled_from([17, 23, 29]),
    seed=st.integers(min_value=0, max_value=2**16),
    strategy=st.sampled_from(["none", "hp", "avp", "nip"]),
    flows=st.integers(min_value=1, max_value=24),
    ttl=st.integers(min_value=4, max_value=32),
    inject_per_epoch=st.integers(min_value=1, max_value=8),
    inject_epochs=st.integers(min_value=1, max_value=4),
    link_failures=st.integers(min_value=0, max_value=2),
    fail_epoch=st.integers(min_value=0, max_value=4),
    repair_epoch=st.one_of(
        st.none(), st.integers(min_value=1, max_value=12)
    ),
)
specs = st.builds(synthetic_spec, **fields)
# Runs of several packets under failures: the untraced kernel splits
# them when they draw and weights every tally by packet count.
run_specs = st.builds(synthetic_spec, **{
    **fields,
    "inject_per_epoch": st.integers(min_value=2, max_value=8),
    "link_failures": st.integers(min_value=1, max_value=2),
})


@settings(max_examples=15, deadline=None)
@given(spec=specs)
def test_vector_reproduces_reference_decisions(spec):
    wl = build_workload(spec)
    ref = run_epoch_reference(wl, trace=True)
    vec = run_epoch_vector(wl, trace=True)
    assert vec.record == ref.record
    assert vec.traces == ref.traces  # ports + per-hop deflected flags
    assert vec.fates == ref.fates
    assert (
        vec.record["rng_fingerprint"] == ref.record["rng_fingerprint"]
    )  # identical stream positions on every switch


@settings(max_examples=10, deadline=None)
@given(spec=specs)
def test_vector_conserves_packets(spec):
    # Reuses the same conservation identity sim/invariants.py enforces
    # for the DES engine: nothing lost or duplicated at any hop.
    wl = build_workload(spec)
    r = run_epoch_vector(wl).record
    assert r["injected"] == wl.injected_total
    assert r["injected"] == (
        r["delivered"]
        + sum(r["misdelivered"].values())
        + sum(r["drop_reasons"].values())
        + r["live_at_end"]
    )
    assert sum(c[0] for c in r["switches"].values()) == r["hops"]


@settings(max_examples=15, deadline=None)
@given(spec=run_specs)
def test_untraced_vector_record_is_the_reference_record(spec):
    # The benchmark's path: no uid column, and the record (with the RNG
    # fingerprint) is all there is to compare.
    wl = build_workload(spec)
    assert run_epoch_vector(wl).record == run_epoch_reference(wl).record

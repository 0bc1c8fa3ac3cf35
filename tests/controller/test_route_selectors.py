"""The per-flow path and the provisioning engine pick the same route.

``core_path_between_edges`` (what ``KarController`` installs) roots the
canonical tree at the source edge; ``ProvisioningEngine.provision``
(what the service and the bulk mesh serve) roots it at the destination
edge.  Where the smallest-name rule applied from the two ends picks
different equal-length paths, the pair is a strict xfail until
ROADMAP item 10's golden-moving half switches ``KarController`` over.
"""

import pytest

from repro.controller import ProvisioningEngine, core_path_between_edges
from repro.service.topology import edge_names, service_topology
from repro.topology import fifteen_node, redundant_path, rnp28, six_node

GRAPHS = {
    "abilene": lambda: service_topology("abilene"),
    "torus33": lambda: service_topology("torus33"),
    "clique6": lambda: service_topology("clique6"),
    "six_node": lambda: six_node().graph,
    "fifteen_node": lambda: fifteen_node().graph,
    "rnp28": lambda: rnp28().graph,
    "redundant_path": lambda: redundant_path().graph,
}

#: Source- and destination-rooted trees disagree here (ROADMAP item 10).
DISAGREE = {
    ("fifteen_node", "E-AS1", "E-AS2"),
    ("fifteen_node", "E-AS1", "E-AS3"),
    ("fifteen_node", "E-AS2", "E-AS1"),
    ("fifteen_node", "E-AS3", "E-AS1"),
}


def _cases():
    for name, build in GRAPHS.items():
        edges = edge_names(build())
        for src in edges:
            for dst in edges:
                if src == dst:
                    continue
                marks = ()
                if (name, src, dst) in DISAGREE:
                    marks = pytest.mark.xfail(
                        strict=True,
                        reason="source- vs destination-rooted tie-break; "
                        "ROADMAP item 10's golden-moving half",
                    )
                yield pytest.param(name, src, dst, marks=marks,
                                   id=f"{name}:{src}->{dst}")


@pytest.fixture(scope="module")
def engines():
    built = {}

    def get(name):
        if name not in built:
            graph = GRAPHS[name]()
            built[name] = (graph, ProvisioningEngine(graph))
        return built[name]

    return get


def test_case_count():
    assert sum(1 for _ in _cases()) == 224


@pytest.mark.parametrize("name, src, dst", list(_cases()))
def test_per_flow_path_equals_provisioned_path(engines, name, src, dst):
    graph, engine = engines(name)
    assert tuple(core_path_between_edges(graph, src, dst)) == \
        engine.provision(src, dst).node_path

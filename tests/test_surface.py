"""ROADMAP item 8 as a test: every module and public name in ``src/repro``
answers to a root.

The roots are the ``repro`` CLI (which reaches every paper figure/table
module, the verify oracles and the service) and the ``benchmarks/e2e``
workloads.  A module stays when import edges from a root reach it; a
top-level public name stays when live code mentions it.  Anything else
is deleted, or sits in ``CLAIMED`` below under one reason from a closed
set.  The test fails on a new orphan *and* on a ``CLAIMED`` entry that
is no longer an orphan, so the table can only shrink.

Pure ``ast`` + ``pathlib``: nothing under ``src/`` is imported.

* Import edges include function-local ones.  ``from pkg import name`` is
  resolved through ``pkg/__init__.py`` to the submodule that defines
  ``name``; an ``__init__``'s own imports are never followed, so a
  re-export does not keep a module alive.
* Liveness is by identifier: a definition is live when its name appears
  (``Name``, ``Attribute`` or imported alias) in a root or in another
  live definition of a reached module; a definition carrying a decorator
  *call* (``@job_kind("chaos")``) registers itself and is live whenever
  its module is reached.  Matching on the bare identifier over-counts
  (two modules' ``build`` keep each other alive), never under-counts.
* Claimed orphans are not roots: what only a claimed name uses is an
  orphan too and needs its own line.

``python tests/test_surface.py`` prints every orphan with its claim.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOT_MODULES = ("repro.cli", "repro.__main__")

ORACLE = "reference implementation an oracle or test compares against"
CASEGEN = "case generator of a pinned or property test"
FIXTURE = "fixture provenance"
ROADMAP = "named by an open ROADMAP item"
REASONS = {ORACLE, CASEGEN, FIXTURE, ROADMAP}

#: reason -> {orphan: who holds it}.  A bare module name claims the
#: whole module; ``module:name`` one top-level name.
CLAIMED: Dict[str, Dict[str, str]] = {
    ROADMAP: {
        "repro.transport.cubic":
            "item 4 (@a60f408): exercised by the sweep or deleted",
        "repro.experiments.frontier:search_worst_schedule":
            "item 3(c) (@a60f408): kept only if it beats the adaptive "
            "adversary",
    },
    ORACLE: {
        "repro.controller.bulk:mesh_digest_reference":
            "tests/controller/test_bulk.py: per-flow engine vs bulk mesh",
        "repro.experiments.table1:PAPER_TABLE1":
            "tests/experiments/test_experiments.py: the paper's printed values",
        "repro.rns.crt:pairwise_coprime":
            "tests/rns, tests/topology: the predicate every pool is held to",
        "repro.rns.gf2:gf2_pairwise_coprime":
            "tests/rns/test_gf2.py, tests/integration/test_backend_properties.py",
    },
    CASEGEN: {
        "repro.controller.bulk:full_mesh_pairs":
            "tests/controller/test_bulk.py: canonical mesh order",
        "repro.controller.protection:ProtectionPlanner":
            "tests/integration/test_datapath_golden.py",
        "repro.controller.protection:ProtectionPlan":
            "ProtectionPlanner's result type",
        "repro.sim.vector:synthetic_spec":
            "tests/integration/test_datapath_golden.py",
        "repro.topology.zoo:fat_tree":
            "tests/topology/test_csr.py, tests/controller/test_bulk.py",
    },
    FIXTURE: {
        "repro.topology.zoo:dump_gml":
            "topology/data/*.gml are exactly its output",
        "repro.topology.zoo:gml_from_links":
            "abilene.gml; test_zoo.py regenerates and compares bytes",
        "repro.topology.zoo:synth_wan_gml":
            "synthwan754.gml; test_zoo.py regenerates and compares bytes",
        "repro.topology.zoo:synth_wan_links": "synth_wan_gml's generator",
        "repro.topology.zoo:SYNTH_WAN_NODES": "synth_wan_links' recipe",
        "repro.topology.zoo:SYNTH_WAN_EXTRA": "synth_wan_links' recipe",
        "repro.topology.zoo:SYNTH_WAN_SEED": "synth_wan_links' recipe",
    },
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _identifiers(node: ast.AST) -> Set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def _definitions(tree: ast.Module) -> Iterator[Tuple[List[str], ast.stmt]]:
    """Top-level statements as ``(names defined, node)``; no names for
    a statement that runs on import (live whenever its module is)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            registers = any(
                isinstance(d, ast.Call) and "dataclass" not in _identifiers(d)
                for d in node.decorator_list
            )
            yield ([] if registers else [node.name]), node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield [t.id for t in targets if isinstance(t, ast.Name)], node
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            yield [], node


class _Surface:
    """``src/repro`` and the root files, parsed once."""

    def __init__(self) -> None:
        self.paths: Dict[str, Path] = {}
        for path in sorted((SRC / "repro").rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.paths[".".join(parts)] = path
        self.trees = {name: _parse(p) for name, p in self.paths.items()}
        self.root_trees = [
            _parse(path)
            for path in sorted((REPO / "benchmarks" / "e2e").glob("*.py"))
            if not path.name.startswith("test_")
        ]
        #: package -> {name its ``__init__`` imports: module it comes from}
        self.reexports = {
            module: {
                name: base
                for base, name in self.imports(module, self.trees[module])
                if name is not None
            }
            for module in self.paths
            if self.is_package(module)
        }

    def is_package(self, module: str) -> bool:
        return self.paths[module].name == "__init__.py"

    def imports(
        self, module: Optional[str], tree: ast.AST
    ) -> Iterator[Tuple[str, Optional[str]]]:
        """Every ``(module, name-or-None)`` the tree imports; *module*
        (None for a root file) anchors relative imports."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level and module is not None:
                    package = module.split(".")
                    drop = node.level - self.is_package(module)
                    package = package[: len(package) - drop]
                    base = ".".join(package + [base] if base else package)
                for alias in node.names:
                    yield base, alias.name

    def resolve(self, module: str, name: Optional[str]) -> Optional[str]:
        """The module ``from module import name`` lands in: a submodule,
        the submodule an ``__init__`` re-exports *name* from, or the
        package itself when its ``__init__`` defines *name*."""
        while module in self.paths:
            if name is not None and f"{module}.{name}" in self.paths:
                return f"{module}.{name}"
            if not self.is_package(module) or name not in self.reexports[module]:
                return module
            module = self.reexports[module][name]
        return None

    def reached(self) -> Set[str]:
        reached = set(ROOT_MODULES)
        work = [(None, tree) for tree in self.root_trees]
        work += [(name, self.trees[name]) for name in ROOT_MODULES]
        while work:
            module, tree = work.pop()
            for base, name in self.imports(module, tree):
                target = self.resolve(base, name)
                if target is not None and target not in reached:
                    reached.add(target)
                    if not self.is_package(target):
                        work.append((target, self.trees[target]))
        return reached

    def orphans(self) -> Tuple[List[str], List[str]]:
        """``(modules, module:name entries)`` no root reaches."""
        reached = self.reached()
        modules = sorted(
            m for m in self.paths if m not in reached and not self.is_package(m)
        )
        live: Set[str] = set()
        for tree in self.root_trees:
            live |= _identifiers(tree)
        pending: List[Tuple[str, List[str], Set[str]]] = []
        for module in sorted(reached):
            for names, node in _definitions(self.trees[module]):
                if not names or names == ["__all__"] or module in ROOT_MODULES:
                    live |= _identifiers(node)
                else:
                    pending.append((module, names, _identifiers(node) - set(names)))
        progress = True
        while progress:
            progress, waiting = False, pending
            pending = []
            for entry in waiting:
                if live.intersection(entry[1]):
                    live |= entry[2]
                    progress = True
                else:
                    pending.append(entry)
        names = sorted(
            f"{module}:{name}"
            for module, defined, _ in pending
            for name in defined
            if not name.startswith("_")
        )
        return modules, names


@functools.lru_cache(maxsize=None)
def _orphans() -> Tuple[List[str], List[str]]:
    return _Surface().orphans()


def _claims() -> Dict[str, Tuple[str, str]]:
    return {
        key: (reason, holder)
        for reason, entries in CLAIMED.items()
        for key, holder in entries.items()
    }


def test_every_module_and_public_name_answers_to_a_root():
    modules, names = _orphans()
    unclaimed = sorted(set(modules + names) - set(_claims()))
    assert not unclaimed, (
        "reached by no CLI verb, e2e workload, oracle, service route or "
        "figure/table -- delete, wire to a root, or claim with a reason:\n  "
        + "\n  ".join(unclaimed)
    )


def test_claimed_table_can_only_shrink():
    modules, names = _orphans()
    stale = sorted(set(_claims()) - set(modules + names))
    assert not stale, (
        "claimed but no longer an orphan (or gone) -- drop from CLAIMED:\n  "
        + "\n  ".join(stale)
    )


def test_every_claim_gives_one_reason_from_the_closed_set():
    assert set(CLAIMED) <= REASONS
    assert sum(map(len, CLAIMED.values())) == len(_claims())


def test_every_roadmap_claim_names_its_item_and_anchor():
    # "item N (@<commit>): why" -- the commit that made the claim, so a
    # later ROADMAP revision can tell how long the item has held it.
    anchored = re.compile(r"items? [0-9][^ ]* \(@[0-9a-f]{7,40}\): \S")
    loose = [k for k, why in CLAIMED[ROADMAP].items()
             if not anchored.match(why)]
    assert not loose, loose


if __name__ == "__main__":
    claims = _claims()
    for kind, items in zip(("module", "name"), _orphans()):
        for item in items:
            why, holder = claims.get(item, ("UNCLAIMED", ""))
            print(f"{kind:6}  {item:52}  {why}: {holder}")

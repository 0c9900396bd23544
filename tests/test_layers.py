"""The query layer is written once.  pircsi.protocols holds everything both
models share; each model module holds only its own draw and shape rules and
imports neither the other model nor the layer above it.  The first model's
draw runs its own partition guard, so no layer above names it."""
import ast
from pathlib import Path

import pytest

from pircsi import audit, protocol_csi2, protocol_rp, protocols

MODEL_MODULES = [protocol_rp, protocol_csi2]
OWN_FUNCTIONS = {
    protocol_rp: {"draw_structures", "check_partition", "check_sizes"},
    protocol_csi2: {
        "case_shape", "case_for", "download_cost", "draw_structures", "_cover_cdf", "check_sizes"
    },
}


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text())


def _imported(module) -> set[str]:
    """The last component of every module the source imports, and every name
    it imports from its own package (`from . import x`)."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.rpartition(".")[2])
    return names


@pytest.mark.parametrize("module", MODEL_MODULES, ids=lambda m: m.__name__)
def test_a_model_module_imports_neither_the_other_model_nor_the_layer(module):
    assert not _imported(module) & {"protocol_rp", "protocol_csi2", "protocols"}


@pytest.mark.parametrize("module", MODEL_MODULES, ids=lambda m: m.__name__)
def test_a_model_module_defines_only_its_draw_and_shape_rules(module):
    tree = _tree(module)
    assert not [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert defined == OWN_FUNCTIONS[module]


@pytest.mark.parametrize("module", MODEL_MODULES, ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["build_query", "answer_query", "decode_answer"])
def test_the_names_the_benchmark_reads_are_the_one_functions(module, name):
    assert getattr(module, name) is getattr(protocols, name)


def _identifiers(module) -> set[str]:
    """Every name, attribute and imported name in the module's source."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("module", [audit, protocols], ids=lambda m: m.__name__)
def test_no_layer_above_the_draw_runs_the_partition_guard(module):
    assert "check_partition" not in _identifiers(module)


def test_the_auditor_never_tells_the_models_apart_by_the_demand():
    compares = [node for node in ast.walk(_tree(audit)) if isinstance(node, ast.Compare)]
    assert "W not in S" not in map(ast.unparse, compares)

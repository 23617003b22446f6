"""One rule engine: the rule and reasoner modules carry no oracle path.

The naive round loop and its decoded-object join live in
``naive_fixpoint.py`` as a test oracle; the production modules keep only
the semi-naive id-space run.  This fence fails if a second path comes back.
"""

import ast
from pathlib import Path

import pytest

import repro.semantics.reasoner
import repro.semantics.rules

FORBIDDEN_DEFS = {"derive", "_instantiate", "infer_only"}


def _offences(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in FORBIDDEN_DEFS:
                yield f"line {node.lineno}: def {node.name}"
        elif isinstance(node, ast.arg) and node.arg == "use_ids":
            yield f"line {node.lineno}: parameter use_ids"
        elif isinstance(node, ast.keyword) and node.arg == "use_ids":
            yield f"line {node.lineno}: use_ids= argument"
        elif isinstance(node, ast.Attribute) and node.attr == "use_ids":
            yield f"line {node.lineno}: .use_ids"


@pytest.mark.parametrize("module", [repro.semantics.rules, repro.semantics.reasoner])
def test_rule_modules_define_no_oracle_path(module):
    assert list(_offences(Path(module.__file__))) == []


def test_the_fence_sees_each_forbidden_shape(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "class Rule:\n"
        "    def derive(self, graph, use_ids=True):\n"
        "        return BGP(self.body, use_ids=self.use_ids)\n"
        "def infer_only(graph):\n"
        "    pass\n"
    )
    assert len(list(_offences(planted))) == 5

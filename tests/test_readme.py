import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library sketch\s*```python\n(.*?)```", text, re.S)
    assert match, "README has no Library sketch block"
    return match.group(1)


def test_library_sketch_runs_and_gives_its_commented_results():
    # run the block statement by statement, keeping each bare expression's value
    namespace, values = {}, []
    for stmt in ast.parse(_library_sketch()).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    wootters, chsh, closed, (i_par, bell_lhs) = values
    assert wootters == pytest.approx(1.0, abs=1e-12)
    assert chsh == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert closed == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(i_par, 0.0, atol=1e-12)
    np.testing.assert_allclose(bell_lhs, 1.0, atol=1e-12)

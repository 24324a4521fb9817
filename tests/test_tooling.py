"""Source checks: the solver and the modules it builds on never call scipy's
integrators, so the ODE oracle, which does, stays independent of them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rdblowup"
INTEGRATORS = {"solve_ivp", "odeint"}


def integrator_uses(tree):
    """(line, text) of each import of scipy.integrate and each call of an
    integrator in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.startswith("scipy.integrate")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {a.name for a in node.names}
            if module.startswith("scipy.integrate") or (module == "scipy"
                                                        and "integrate" in names):
                found.append((node.lineno, f"from {module} import {', '.join(sorted(names))}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in INTEGRATORS:
                found.append((node.lineno, f"call of {name}"))
    return found


@pytest.mark.parametrize("module", ["solver.py", "geometry.py", "functionals.py"])
def test_module_calls_no_scipy_integrator(module):
    assert integrator_uses(ast.parse((SRC / module).read_text())) == []


@pytest.mark.parametrize("source", [
    "import scipy.integrate",
    "from scipy.integrate import solve_ivp",
    "from scipy import integrate",
    "odeint(f, y0, t)",
    "scipy.integrate.solve_ivp(f, (0, 1), y0)",
])
def test_every_form_is_found(source):
    assert len(integrator_uses(ast.parse(source))) == 1


def test_the_oracle_is_found():
    # the oracle's own use of solve_ivp, the import and the call
    assert len(integrator_uses(ast.parse((SRC / "oracle.py").read_text()))) == 2

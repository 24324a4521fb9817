"""Source checks: no module of the package calls scipy's integrators or
drives its steppers, and the ODE oracle, which carries DOP853's tableau and
Brent's method, imports nothing from the package, so the solver and the
oracle stay independent; both
evaluate the reaction f1, f2 through `Nonlinearity.reaction` alone, which
holds its one float rule; the solver reaches the stage
kernels of a trial from `step` alone; it leaves the
operator's product and the mesh's fold and collapse to geometry.py; no
module imports or reads a private name of another;
`simulate` writes how a run ends once: one loop condition, no `break`, one
assignment of the outcome; E, J, scriptE and their terms are evaluated in
`energy_rows` alone, which every other module reaches through
`energy_sample` or `energy_rows`; and cli.py's `sandwich` judges its
estimate in one place: one comparison of `est.t`, one write of a
`*_violated` key, one read of the step-underflow outcome.

Import budget: no module imports scipy at module level, so importing the
package loads numpy alone, and `scipy.sparse`, the one scipy import, loads
only on the code path that builds a DIA matrix, checked in fresh
interpreters: `bounds` and a flat `sandwich` load no scipy module."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rdblowup"
SANDWICH_CONFIG = SRC.parent.parent / "demos" / "configs" / "sandwich_box3d.ini"
ROBIN_CONFIG = SANDWICH_CONFIG.with_name("robin_drain.ini")
ABSORPTION_CONFIG = SANDWICH_CONFIG.with_name("absorption_threshold.ini")
# scipy's integrators, and its stepper classes, which a loop can drive by hand
INTEGRATORS = {"solve_ivp", "odeint", "DOP853", "RK45", "RK23", "Radau", "BDF", "LSODA",
               "ode"}


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


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_calls_no_scipy_integrator(module):
    assert integrator_uses(ast.parse((SRC / module).read_text())) == []


@pytest.mark.parametrize("source", [
    "import scipy.integrate",
    "from scipy.integrate import solve_ivp",
    "from scipy import integrate",
    "odeint(f, y0, t)",
    "scipy.integrate.solve_ivp(f, (0, 1), y0)",
    "DOP853(f, 0.0, y0, 1.0).step()",
])
def test_every_form_is_found(source):
    assert len(integrator_uses(ast.parse(source))) == 1


def test_the_oracle_is_found():
    # the oracle carries DOP853's tableau and steps it on floats itself: no
    # import of scipy.integrate, and no integrator call
    assert len(integrator_uses(ast.parse((SRC / "oracle.py").read_text()))) == 0


def package_imports(tree):
    """(line, module) of each import of the package's own modules in a parsed
    module: a relative import, or one of `rdblowup`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] == "rdblowup"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "rdblowup"):
            found.append((node.lineno, "." * node.level + (node.module or "")))
    return found


@pytest.mark.parametrize("source, found", [
    ("from .solver import step", 1),
    ("from . import geometry", 1),
    ("def f():\n    from rdblowup.solver import simulate", 1),
    ("import rdblowup.geometry as g", 1),
    ("import numpy as np\nfrom math import inf\nfrom scipy.optimize import brentq", 0),
])
def test_every_package_import_is_found(source, found):
    assert len(package_imports(ast.parse(source))) == found


def test_the_oracle_imports_nothing_from_the_package():
    # the oracle checks the solver, so it shares no code with it or with the
    # modules the solver builds on
    assert package_imports(ast.parse((SRC / "oracle.py").read_text())) == []


def module_level_scipy_imports(tree):
    """(line, module) of each scipy import outside a function body."""
    found, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append((node.lineno, node.module))
        pending.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_no_scipy_at_module_level(module):
    assert module_level_scipy_imports(ast.parse((SRC / module).read_text())) == []


@pytest.mark.parametrize("source, found", [
    ("import scipy.sparse", 1),
    ("from scipy.integrate import quad", 1),
    ("class C:\n    from scipy import linalg", 1),
    ("if True:\n    import scipy", 1),
    ("def f():\n    from scipy.integrate import quad", 0),
    ("class C:\n    def f(self):\n        import scipy.sparse", 0),
])
def test_every_module_level_form_is_found(source, found):
    assert len(module_level_scipy_imports(ast.parse(source))) == found


def sparse_import_sites(tree, scope=()):
    """The qualified name of the class or function holding each import of
    scipy.sparse in a parsed module, "" at module level."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += sparse_import_sites(node, (*scope, node.name))
        elif isinstance(node, ast.Import):
            found += [".".join(scope) for a in node.names
                      if a.name.split(".")[:2] == ["scipy", "sparse"]]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[:2] == ["scipy", "sparse"] or (
                    module == ["scipy"] and "sparse" in {a.name for a in node.names}):
                found.append(".".join(scope))
        else:
            found += sparse_import_sites(node, scope)
    return found


@pytest.mark.parametrize("source, sites", [
    ("import scipy.sparse", [""]),
    ("from scipy import sparse", [""]),
    ("class C:\n    def f(self):\n        from scipy.sparse import dia_array", ["C.f"]),
    ("def f():\n    if True:\n        import scipy.sparse.linalg", ["f"]),
    ("import scipy.integrate\nfrom scipy import linalg", []),
])
def test_every_sparse_import_site_is_found(source, sites):
    assert sparse_import_sites(ast.parse(source)) == sites


def test_scipy_sparse_is_imported_at_one_site():
    # the DIA format is known to the one method that builds the operator's matrix
    sites = [(path.name, site) for path in sorted(SRC.glob("*.py"))
             for site in sparse_import_sites(ast.parse(path.read_text()))]
    assert sites == [("geometry.py", "RobinOperator.matrix")]


def reaction_reads(tree):
    """(qualified name of the enclosing function, "f1" or "f2", whether it
    is called) of each read of an attribute `.f1` or `.f2`, and of each
    string "f1" or "f2" (as `getattr` takes it), in a parsed module; "" at
    module level.  Only an attribute called where it is read is called."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("f1", "f2"):
                found.append((".".join(scope), child.attr, id(child) in called))
            elif isinstance(child, ast.Constant) and child.value in ("f1", "f2"):
                found.append((".".join(scope), child.value, False))
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("source, reads", [
    ("nl.f1(u, v)", [("", "f1", True)]),
    ("def f(nl):\n    return nl.f2(nl.f1(u, v), v)", [("f", "f2", True), ("f", "f1", True)]),
    ("class C:\n    def g(self):\n        out[0] = self.nl.f1(u, v)", [("C.g", "f1", True)]),
    ("def f(nl):\n    g = nl.f1\n    return g(u, v)", [("f", "f1", False)]),
    ("list(map(nl.f2, us, vs))", [("", "f2", False)]),
    ("partial(nl.f1, u)(v)", [("", "f1", False)]),
    ("getattr(nl, 'f2')(u, v)", [("", "f2", False)]),
    ("f1(u, v)\nnl.F(u, v)\nnl.f12(u, v)", []),
], ids=["call", "nested_calls", "method", "bound_to_a_name", "mapped", "partial", "getattr",
        "no_read"])
def test_every_reaction_call_site_is_found(source, reads):
    assert reaction_reads(ast.parse(source)) == reads


# what the reaction's float rule reads: the errors it catches on Python
# floats and the numpy scalars it calls again on
FLOAT_RULE = {"ArithmeticError", "TypeError", "float64"}


@pytest.mark.parametrize("module", ["solver.py", "oracle.py"])
def test_the_module_calls_no_f1_or_f2_and_holds_no_retry(module):
    # the solver and the ODE oracle evaluate the reaction through
    # `Nonlinearity.reaction` alone, so no copy of its float rule can drift
    tree = ast.parse((SRC / module).read_text())
    assert reaction_reads(tree) == [] and name_reads(tree, FLOAT_RULE) == []


def test_nonlinearity_reaction_holds_the_one_float_rule():
    # one call of f1 and of f2 on the arguments, and one more of each on
    # numpy scalars where Python raised: so a counted f1 is one evaluation
    # of N unless Python raised, and the rule is written nowhere else
    tree = ast.parse((SRC / "nonlinearity.py").read_text())
    reads = [read for read in reaction_reads(tree) if read[0].startswith("Nonlinearity")]
    assert reads == [("Nonlinearity.reaction", f, True) for f in ("f1", "f2")] * 2
    sites = sorted((path.name, *site) for path in sorted(SRC.glob("*.py"))
                   for site in name_reads(ast.parse(path.read_text()), FLOAT_RULE))
    assert sites == [("nonlinearity.py", "Nonlinearity.reaction", name)
                     for name in ("ArithmeticError", "TypeError", "float64", "float64")]


# the stage kernels of one trial, which the solver reaches from `step` alone
STEP_KERNELS = {"_one_cell_step", "_explicit_stages", "_lawson_stages"}


def name_reads(tree, names, scope=()):
    """(qualified name of the enclosing function, name) of each read of a
    name in `names` in a parsed module, "" at module level: bare or as an
    attribute, called or not, or as a string (as `getattr` takes it)."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += name_reads(node, names, (*scope, node.name))
            continue
        loaded = isinstance(getattr(node, "ctx", None), ast.Load)
        name = (node.id if isinstance(node, ast.Name) and loaded
                else node.attr if isinstance(node, ast.Attribute) and loaded
                else node.value if isinstance(node, ast.Constant) else None)
        if isinstance(name, str) and name in names:
            found.append((".".join(scope), name))
        found += name_reads(node, names, scope)
    return found


@pytest.mark.parametrize("source, reads", [
    ("def step(y, pair):\n    if type(y) is tuple:\n        return _one_cell_step(y)\n"
     "    stages = _lawson_stages if pair.lawson else _explicit_stages\n    return stages(y)",
     [("step", "_one_cell_step"), ("step", "_lawson_stages"), ("step", "_explicit_stages")]),
    ("def simulate(y):\n    return _explicit_stages(y, dt)", [("simulate", "_explicit_stages")]),
    ("class StepWork:\n    def restart(self, y):\n        solver._lawson_stages(y)",
     [("StepWork.restart", "_lawson_stages")]),
    ("def f(y):\n    return partial(_one_cell_step, y)", [("f", "_one_cell_step")]),
    ("def f(m):\n    return getattr(m, '_one_cell_step')(y)", [("f", "_one_cell_step")]),
    ("kernel = _lawson_stages", [("", "_lawson_stages")]),
    ("def _one_cell_step(y):\n    _explicit_stages = 1\n    return y._lawson", []),
], ids=["step", "call_from_another_function", "method", "partial", "getattr", "module_level",
        "no_read"])
def test_every_step_kernel_read_is_found(source, reads):
    assert name_reads(ast.parse(source), STEP_KERNELS) == reads


def test_the_solver_reaches_its_stage_kernels_from_step_alone():
    # every trial goes through `step`, whose spies count it, and one state
    # test there picks the float step or a pair's array stages
    sites = sorted((path.name, *site) for path in sorted(SRC.glob("*.py"))
                   for site in name_reads(ast.parse(path.read_text()), STEP_KERNELS))
    assert sites == sorted(("solver.py", "step", kernel) for kernel in STEP_KERNELS)

# what only geometry.py may know: the operator's matrix and whether it is
# zero, the cells a reduced mesh keeps and the mirror of a folded axis
GEOMETRY_ONLY = {"matrix", "is_zero", "box_index", "flip"}


def geometry_reads(tree):
    """(line, name) of each attribute in GEOMETRY_ONLY read, and each bare
    `flip` named, in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in GEOMETRY_ONLY:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "flip":
            found.append((node.lineno, node.id))
    return found


@pytest.mark.parametrize("source, found", [
    ("op.matrix @ y", 1),
    ("if op.is_zero:\n    pass", 1),
    ("g[mesh.box_index]", 1),
    ("np.flip(g, 0)", 1),
    ("from numpy import flip\nflip(g, 0)", 1),
    ("op.add_product(y, out)\nmesh.restrict(g)\nmesh.unfold(y)", 0),
])
def test_every_geometry_read_is_found(source, found):
    assert len(geometry_reads(ast.parse(source))) == found


def test_the_solver_leaves_the_operator_and_the_reduction_to_geometry():
    assert geometry_reads(ast.parse((SRC / "solver.py").read_text())) == []


# the package's modules, whose `_`-prefixed names are their own
PACKAGE_MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}


def private_reads(tree, modules):
    """(line, module, name) of each `_`-prefixed name of a module in
    `modules` that a parsed module imports from it, or reads as an attribute
    of it: of a name bound to the module, or of an attribute named after it
    (as in `rdblowup.geometry._x`)."""
    found, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname: a.name.split(".")[-1] for a in node.names
                      if a.asname and a.name.split(".")[-1] in modules}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            if module in modules:
                found += [(node.lineno, module, a.name) for a in node.names
                          if a.name.startswith("_")]
            else:
                bound |= {a.asname or a.name: a.name for a in node.names if a.name in modules}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            value = node.value
            module = (bound.get(value.id) if isinstance(value, ast.Name)
                      else value.attr if isinstance(value, ast.Attribute) else None)
            if module in modules:
                found.append((node.lineno, module, node.attr))
    return sorted(found)


@pytest.mark.parametrize("source, found", [
    ("from .geometry import _x", [(1, "geometry", "_x")]),
    ("from rdblowup.geometry import Mesh, _x as y", [(1, "geometry", "_x")]),
    ("import rdblowup.geometry as g\ng._x", [(2, "geometry", "_x")]),
    ("from . import geometry\ngeometry._x(1)", [(2, "geometry", "_x")]),
    ("import rdblowup.geometry\nrdblowup.geometry._x", [(2, "geometry", "_x")]),
    ("from .functionals import FieldPair, _y", [(1, "functionals", "_y")]),
    ("from . import bounds as bounds_mod\nbounds_mod._checks(nl)", [(2, "bounds", "_checks")]),
    ("import rdblowup.solver\nrdblowup.solver._one_cell_step", [(2, "solver", "_one_cell_step")]),
    ("from .geometry import Mesh\nmesh._x\nnp._y\nself.nl._z", []),
    ("import numpy as geometry_np\ngeometry_np._x\nfrom numpy import _y", []),
], ids=["relative", "absolute_renamed", "module_alias", "module_from_package", "dotted",
        "another_module", "another_module_alias", "another_module_dotted", "public",
        "not_a_package_module"])
def test_every_private_read_is_found(source, found):
    assert private_reads(ast.parse(source), PACKAGE_MODULES) == found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_reads_a_private_name_of_another(module):
    # each module's private names are its own: a rule another module needs
    # belongs to that module or is public
    tree = ast.parse((SRC / module).read_text())
    assert private_reads(tree, PACKAGE_MODULES - {module[:-3]}) == []


def assigned_names(target):
    """The names an assignment target binds."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return assigned_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in assigned_names(elt)]
    return []


def run_end_sites(tree, function="simulate"):
    """(line of each `break`, line of each assignment to `outcome`, text of
    each `while` condition) in the module-level function `function` of a
    parsed module."""
    [func] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    breaks, outcomes, loops = [], [], []
    for node in ast.walk(func):
        if isinstance(node, ast.Break):
            breaks.append(node.lineno)
        elif isinstance(node, ast.While):
            loops.append(ast.unparse(node.test))
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign,
                                                      ast.NamedExpr, ast.For)) else [])
        if any("outcome" in assigned_names(target) for target in targets):
            outcomes.append(node.lineno)
    return sorted(breaks), sorted(outcomes), loops


@pytest.mark.parametrize("source, sites", [
    ("def simulate():\n    outcome = 1", ([], [2], [])),
    ("def simulate():\n    while t < 1:\n        break", ([3], [], ["t < 1"])),
    ("def simulate():\n    a, *outcome = f()\n    outcome += 1\n    outcome: str = ''",
     ([], [2, 3, 4], [])),
    ("def simulate():\n    if (outcome := f()):\n        pass\n    for outcome in g():\n"
     "        pass", ([], [2, 4], [])),
    ("def simulate():\n    def inner():\n        for x in y:\n            break\n"
     "    return f(outcome=1)", ([4], [], [])),
    ("def other():\n    outcome = 1\n    while 1:\n        break\ndef simulate():\n    pass",
     ([], [], [])),
])
def test_every_run_end_site_is_found(source, sites):
    assert run_end_sites(ast.parse(source)) == sites


def test_simulate_decides_how_a_run_ends_in_one_place():
    # the stop rule is the step loop's condition, with no `break` beside it,
    # and the outcome is one expression (solver.py's module docstring): a
    # new exit goes into both rules, not into another branch of the loop
    breaks, outcomes, loops = run_end_sites(ast.parse((SRC / "solver.py").read_text()))
    assert breaks == []
    assert len(outcomes) == 1
    assert loops == ["t < config.t_end and sup < config.sup_threshold and (not dt_underflow)"]


def violated_key(key):
    """Whether a dict key is spelled `*_violated`: a string, or an f-string
    whose text ends so."""
    if isinstance(key, ast.JoinedStr) and key.values:
        key = key.values[-1]
    return (isinstance(key, ast.Constant) and isinstance(key.value, str)
            and key.value.endswith("_violated"))


def verdict_sites(tree):
    """(line of each comparison that reads `est.t`, line of each write of a
    `*_violated` key, line of each read of OUTCOME_STEP_UNDERFLOW) in a
    parsed module."""
    compares, violated, underflows = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "t"
                and isinstance(sub.value, ast.Name) and sub.value.id == "est"
                for sub in ast.walk(node)):
            compares.add(node.lineno)
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        if (any(isinstance(t, ast.Subscript) and violated_key(t.slice) for t in targets)
                or isinstance(node, ast.Dict) and any(map(violated_key, node.keys))):
            violated.add(node.lineno)
        if (isinstance(node, ast.Name) and node.id == "OUTCOME_STEP_UNDERFLOW"
                and isinstance(node.ctx, ast.Load)):
            underflows.add(node.lineno)
    return sorted(compares), sorted(violated), sorted(underflows)


@pytest.mark.parametrize("source, sites", [
    ("if est.t > a + tol:\n    v['upper_violated'] = True\n"
     "if abs(est.t - b) > tol:\n    v['oracle_violated'] = True", ([1, 3], [2, 4], [])),
    ("for name, (lo, hi) in ends.items():\n    if not lo <= est.t <= hi:\n"
     "        verdict[f'{name}_violated'] = True", ([2], [3], [])),
    ("v = {'partial': est is None, 'lower_violated': x}\nt = est.t\nw = {'upper': 1}\n"
     "w['partial'] = est.t\nw[key] = 1", ([], [1], [])),
    ("from .solver import OUTCOME_STEP_UNDERFLOW\nc = 3 if o == OUTCOME_STEP_UNDERFLOW else 0\n"
     "OUTCOME_STEP_UNDERFLOW = 1\nif x.t < 1 and s.OUTCOME_STEP_UNDERFLOW:\n    pass",
     ([], [], [2])),
])
def test_every_verdict_site_is_found(source, sites):
    assert verdict_sites(ast.parse(source)) == sites


def test_sandwich_judges_its_estimate_in_one_place():
    # every end of the bracket is an interval in one loop of cmd_sandwich,
    # and `_simulate` alone turns a step underflow into its exit code: a new
    # end is one more interval, not another branch
    compares, violated, underflows = verdict_sites(ast.parse((SRC / "cli.py").read_text()))
    assert len(compares) == 1
    assert len(violated) == 1
    assert len(underflows) == 1


# the kernels of the monitor row's terms, and the two functions that read a
# functional for another module
ROW_KERNELS = {"_squared_integrals", "_power_integrals", "_gradient_energies",
               "_boundary_energies"}
ROW_READERS = {"energy_rows", "energy_sample"}


def call_sites(tree, names, scope=()):
    """(qualified name of the enclosing function, called name) of each call of
    a name in `names`, bare or as an attribute, in a parsed module, "" at
    module level."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += call_sites(node, names, (*scope, node.name))
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((".".join(scope), name))
        found += call_sites(node, names, scope)
    return found


def functional_readers(tree):
    """The module-level functions of a parsed module that call a row kernel,
    or such a function, by name."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    calls = {name: {called for _, called in call_sites(node, ROW_KERNELS | set(functions))}
             for name, node in functions.items()}
    readers = set()
    while True:
        grown = {name for name, called in calls.items() if called & (ROW_KERNELS | readers)}
        if grown == readers:
            return readers
        readers = grown


def functionals_names(tree):
    """The names a parsed module imports from functionals.py, or reads as an
    attribute of a module named `functionals`."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "functionals"):
            found |= {a.name for a in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "functionals"):
            found.add(node.attr)
    return found


@pytest.mark.parametrize("source, sites", [
    ("def energy_rows(s):\n    return _squared_integrals(s, m)",
     [("energy_rows", "_squared_integrals")]),
    ("class C:\n    def f(self):\n        functionals._power_integrals(s, m, 2)",
     [("C.f", "_power_integrals")]),
    ("x = _boundary_energies(s, m)\n_gradient_energies\nf(_squared_integrals)",
     [("", "_boundary_energies")]),
])
def test_every_kernel_call_site_is_found(source, sites):
    assert call_sites(ast.parse(source), ROW_KERNELS) == sites


@pytest.mark.parametrize("source, readers", [
    ("def energy_rows():\n    _squared_integrals()\ndef energy_sample():\n    energy_rows()",
     {"energy_rows", "energy_sample"}),
    ("def a():\n    b()\ndef b():\n    c()\ndef c():\n    _boundary_energies()\n"
     "def d():\n    pass", {"a", "b", "c"}),
    ("def energy_E(f, m):\n    return energy_sample(f, m).E\n"
     "def energy_sample():\n    _power_integrals()", {"energy_E", "energy_sample"}),
])
def test_every_functional_reader_is_found(source, readers):
    assert functional_readers(ast.parse(source)) == readers


@pytest.mark.parametrize("source, names", [
    ("from .functionals import FieldPair, energy_sample", {"FieldPair", "energy_sample"}),
    ("from rdblowup.functionals import energy_rows as rows", {"energy_rows"}),
    ("from . import functionals\nfunctionals.energy_E(f, m)", {"energy_E"}),
    ("from .geometry import Mesh\nrow.E", set()),
])
def test_every_name_read_from_functionals_is_found(source, names):
    assert functionals_names(ast.parse(source)) == names


def test_the_row_kernels_are_called_from_energy_rows_alone():
    # each term of the monitor row has one formula, evaluated in one place
    sites = sorted((path.name, *site) for path in sorted(SRC.glob("*.py"))
                   for site in call_sites(ast.parse(path.read_text()), ROW_KERNELS))
    assert sites == sorted(("functionals.py", "energy_rows", kernel) for kernel in ROW_KERNELS)


def test_every_module_reads_a_functional_off_the_monitor_row():
    # no per-call wrapper of a functional: of the names the other modules
    # (the package's exports among them) take from functionals.py, those that
    # evaluate a term of the row are the row and its one-state form
    readers = functional_readers(ast.parse((SRC / "functionals.py").read_text()))
    read = {name for path in sorted(SRC.glob("*.py")) if path.name != "functionals.py"
            for name in functionals_names(ast.parse(path.read_text())) & readers}
    assert read == ROW_READERS


def modules_after(code, tmp_path):
    """The modules loaded once `code` has run in a fresh interpreter with the
    package on its path."""
    script = (f"import sys\nsys.path.insert(0, {str(SRC.parent)!r})\n{code}\n"
              "import json\nprint(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def scipy_modules_after(code, tmp_path):
    """The scipy modules of `modules_after`."""
    return [m for m in modules_after(code, tmp_path) if m.split(".")[0] == "scipy"]


def test_importing_the_package_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import rdblowup, rdblowup.cli", tmp_path) == []


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # only --jobs with several configs imports concurrent.futures, and with
    # it multiprocessing
    loaded = modules_after("import rdblowup, rdblowup.cli", tmp_path)
    assert "multiprocessing" not in loaded and "concurrent.futures" not in loaded


def test_lawson_only_simulate_loads_no_scipy(tmp_path):
    # F = 0 and a Robin heat mode: every step is a Lawson step, which needs
    # the eigenpairs and no DIA matrix
    code = """
import math
import numpy as np
from rdblowup import DomainSpec, Nonlinearity, SolverConfig, build_mesh, simulate
mesh = build_mesh(DomainSpec("box", 3, half_extents=(1.0, 1.0, 1.0)), 8)
zero = Nonlinearity(family="custom", params={}, f1=lambda u, v: 0.0 * u,
                    f2=lambda u, v: 0.0 * v, F=None)
lam = 0.8
g = np.prod(np.cos(lam * mesh.cell_centers), axis=1)
trace = simulate(SolverConfig(mesh=mesh, nl=zero, gamma1=lam * math.tan(lam),
                              gamma2=lam * math.tan(lam), g1=g, g2=g, t_end=0.05))
assert trace.steps_by_pair["lawson_bs3"]["accepted"] > 0
assert trace.steps_by_pair["dp5"] == {"accepted": 0, "rejected": 0}
"""
    assert scipy_modules_after(code, tmp_path) == []


def cli_modules(tmp_path, command, config, *options, exit_code=0):
    """The scipy modules a CLI run of `command` on `config` loads, after
    checking its exit code."""
    code = (f"from rdblowup import cli\n"
            f"assert cli.main([{command!r}, '--config', {str(config)!r}, "
            f"'--out-dir', 'out', *{list(options)!r}]) == {exit_code}")
    return scipy_modules_after(code, tmp_path)


def test_check_command_loads_no_scipy(tmp_path):
    assert cli_modules(tmp_path, "check", SANDWICH_CONFIG) == []


@pytest.mark.parametrize("config", [SANDWICH_CONFIG, ABSORPTION_CONFIG],
                         ids=["sandwich_box3d", "absorption_threshold"])
def test_flat_sandwich_loads_no_scipy(tmp_path, config):
    # the lower bound is evaluated in closed form and the oracle carries its
    # tableau and root finder; the flat simulation builds no DIA matrix
    assert cli_modules(tmp_path, "sandwich", config, "--resolution", "8") == []
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["oracle"]["blowup_time"] is not None
    assert report["lower_bound"]["t_lower"] > 0


@pytest.mark.parametrize("config, exit_code", [(SANDWICH_CONFIG, 0), (ABSORPTION_CONFIG, 0),
                                               (ROBIN_CONFIG, 1)],
                         ids=["sandwich_box3d", "absorption_threshold", "robin_drain"])
def test_bounds_command_loads_no_scipy(tmp_path, config, exit_code):
    assert cli_modules(tmp_path, "bounds", config, exit_code=exit_code) == []


def dp5_simulate_modules(config, tmp_path, *options):
    """The scipy modules a CLI `simulate` of `config` loads, after checking
    that it took DP5 steps."""
    code = (f"from rdblowup import cli\n"
            f"assert cli.main(['simulate', '--config', {str(config)!r}, "
            f"'--out-dir', 'out', *{list(options)!r}]) == 0")
    loaded = scipy_modules_after(code, tmp_path)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["simulation"]["steps_by_pair"]["dp5"]["accepted"] > 0
    return loaded


def test_flat_dp5_blowup_run_loads_no_scipy(tmp_path):
    # the flat blow-up collapses onto one cell, where the operator is zero:
    # its DP5 steps form N(y) alone and build no DIA matrix
    assert dp5_simulate_modules(SANDWICH_CONFIG, tmp_path, "--resolution", "8") == []


def test_robin_dp5_run_loads_sparse_and_no_integrator(tmp_path):
    # Robin walls keep the operator nonzero, so DP5 applies its DIA matrix
    loaded = dp5_simulate_modules(ROBIN_CONFIG, tmp_path)
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.split(".")[:2] == ["scipy", "integrate"]]

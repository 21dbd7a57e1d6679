"""Static checks on the package and test sources, and what a fresh
interpreter loads when it imports and runs the package."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import covbvm.errors

ROOT = pathlib.Path(__file__).resolve().parent.parent
# __init__.py modules import names to re-export them
MODULES = sorted(
    path
    for folder in ("src/covbvm", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)
PACKAGE_MODULES = [path for path in MODULES if path.parent.name == "covbvm"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (__future__ imports excepted)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = "import os\nimport scipy.stats\nfrom math import pi, tau as t\nscipy.stats.norm(pi)\n"
    assert unused_imports(source) == ["os", "t"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """``module:name`` for each ``_``-prefixed name imported from a package
    module (a relative import or one from ``covbvm``); dunders are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "covbvm"
        ):
            origin = "." * node.level + (node.module or "")
            found.extend(
                f"{origin}:{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            )
    return found


def test_private_import_checker_finds_private_names():
    source = (
        "from __future__ import annotations\n"
        "from numpy import _pytesttester\n"
        "from . import __version__, _helper\n"
        "from .posterior import _CHUNK as chunk, sample_posterior\n"
        "from covbvm.spd import _EPS\n"
    )
    assert private_imports(source) == [".:_helper", ".posterior:_CHUNK", "covbvm.spd:_EPS"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    # a private name is one module's own decision; another module that needs
    # it calls a public function of its owner
    assert private_imports(path.read_text()) == []


def unused_parameters(source: str, exempt=frozenset()) -> list[str]:
    """``function.parameter`` for each parameter its function's body never reads.

    Functions named in ``exempt`` are skipped.  A name read by a nested
    function counts as read by the enclosing one.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name in exempt:
            continue
        args = node.args
        params = [
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            if arg is not None
        ]
        used = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found.extend(f"{node.name}.{name}" for name in params if name not in used)
    return sorted(found)


def dispatch_commands(source: str) -> set[str]:
    """Functions listed in a module-level ``_DISPATCH`` dict.

    The CLI calls every command with the same arguments, so a command may
    ignore some of them.
    """
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_DISPATCH" for t in node.targets
        ):
            return {value.id for value in node.value.values}
    return set()


def test_parameter_checker_finds_unused_names():
    source = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    def g(d):\n"
        "        return a + d\n"
        "    return g(c)\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return self\n"
        "_DISPATCH = {'run': h}\n"
        "def h(y):\n"
        "    pass\n"
    )
    assert unused_parameters(source) == ["f.args", "f.b", "f.kw", "h.y", "m.x"]
    assert unused_parameters(source, dispatch_commands(source)) == ["f.args", "f.b", "f.kw", "m.x"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    source = path.read_text()
    exempt = dispatch_commands(source) if path.name == "cli.py" else set()
    assert unused_parameters(source, exempt) == []


def unread_dataclass_fields(sources) -> list[str]:
    """``Class.field`` for each dataclass field whose name no attribute load
    in any of the sources reads.

    Matching is by name only, so a field shares its reads with every
    attribute of the same name.
    """
    fields, loads = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                fields.extend(
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in loads)


def test_field_checker_finds_unread_fields():
    sources = [
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 1\n"
        "class Plain:\n"
        "    w: int\n",
        "def f(a):\n"
        "    a.z = 2\n"
        "    return a.x\n",
    ]
    assert unread_dataclass_fields(sources) == ["A.y", "A.z"]


def test_no_unread_dataclass_fields():
    package = (ROOT / "src/covbvm").glob("*.py")
    assert unread_dataclass_fields([path.read_text() for path in package]) == []


def attribute_reads(source: str, name: str) -> list[int]:
    """Line of each read of an attribute with the given name."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.ctx, ast.Load)
    ]


def test_stack_checker_finds_matrices_reads():
    source = (
        "stack = draws.matrices\n"
        "n = len(sample_posterior(s, 10).matrices)\n"
        "matrices = draws.map(len)\n"
        "draws.matrices = stack\n"
        "def matrices(self):\n"
        "    return self.map(len)\n"
    )
    assert attribute_reads(source, "matrices") == [1, 2]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_package_reduces_draws_without_their_stack(path):
    # every consumer in the package reduces draws through PosteriorDraws.map,
    # so none holds the (M, p, p) stack that .matrices builds
    assert attribute_reads(path.read_text(), "matrices") == []


def test_samples_checker_finds_samples_reads():
    source = (
        "x = data.samples @ u\n"
        "n = sample_dataset(spec).samples.shape[0]\n"
        "samples = data.sample_cov\n"
        "data.samples = x\n"
        "dataset_from_samples(samples)\n"
    )
    assert attribute_reads(source, "samples") == [1, 2]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_package_reads_datasets_through_their_covariance(path):
    # every reader of a dataset needs only n and the sample covariance, and a
    # Gaussian dataset draws no samples to read
    assert attribute_reads(path.read_text(), "samples") == []


def name_mentions(source: str, name: str) -> list[int]:
    """Line of each mention of a name: read or bound, imported, or an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend(node.lineno for alias in node.names
                         if name in (alias.name.split(".")[-1], alias.asname))
        elif (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.append(node.lineno)
    return sorted(found)


def test_mention_checker_finds_every_form():
    source = (
        "from .errors import ConfigError\n"
        "import covbvm.errors as e\n"
        "raise e.ConfigError('x')\n"
        "from .errors import CovBvmError as ConfigError\n"
        "ConfigErrors = 1\n"
        "'ConfigError'\n"
        "except_ = ConfigError\n"
    )
    assert name_mentions(source, "ConfigError") == [1, 3, 4, 7]


def readme_section(title: str) -> str:
    """The text of README's ``## title`` section, up to the next ``## ``."""
    text = (ROOT / "README.md").read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def unused_exports(init_source: str, module_sources, overview: str) -> list[str]:
    """Each name that ``init_source`` re-exports from a package module and
    that no module source mentions (``name_mentions``) and no backticked span
    of the overview's prose names; fenced code blocks are not prose."""
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]
    prose = re.sub(r"^```.*?^```", "", overview, flags=re.M | re.S)
    documented = {word for span in re.findall(r"`([^`]+)`", prose)
                  for word in re.findall(r"\w+", span)}
    return sorted(
        name for name in exported
        if name not in documented and not any(name_mentions(m, name) for m in module_sources)
    )


def test_export_checker_finds_unused_names():
    init = (
        "from .a import called, documented, unused as renamed, fenced\n"
        "from numpy import outside\n"
        "__version__ = '0'\n"
    )
    modules = ["def called():\n    pass\n", "import a\nx = a.called()\n"]
    overview = "`documented(x, y)` and `covbvm.a`\n```python\nfenced()\n`fenced`\n```\n"
    assert unused_exports(init, modules, overview) == ["fenced", "renamed"]


def test_every_export_has_a_caller_or_is_documented():
    # a re-exported name is either used by the package or one of the library
    # entry points that README's overview names; anything else is dead weight
    modules = [path.read_text() for path in PACKAGE_MODULES]
    init = (ROOT / "src/covbvm/__init__.py").read_text()
    assert unused_exports(init, modules, readme_section("Library overview")) == []


def test_readme_minimal_session_runs(capsys):
    overview = readme_section("Library overview")
    session = re.search(r"A minimal session:\n\n```python\n(.*?)^```", overview, re.M | re.S)
    exec(session.group(1), {})
    # it prints the Kolmogorov distance of the trace statistic to N(0, 1)
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


@pytest.mark.parametrize(
    "path",
    [path for path in sorted((ROOT / "src/covbvm").glob("*.py"))
     if path.name not in ("cli.py", "errors.py")],
    ids=lambda p: p.name,
)
def test_config_format_lives_in_cli(path):
    # the CLI reads the config format and reports its faults; no other module
    # parses a config, so none raises or imports ConfigError
    assert name_mentions(path.read_text(), "ConfigError") == []


# the config readers of cli.py, and the error they raise
CONFIG_READERS = ("_lookup", "_numeric", "_parse", "ConfigError")


def config_checks(source: str) -> dict[str, list[str]]:
    """For each module-level function, the config readers it mentions and
    whether it raises ConfigError: ``{function: [names..., "raise"]}``, with
    functions that mention none left out."""
    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = ast.unparse(node)
        names = [name for name in CONFIG_READERS if name_mentions(body, name)]
        if any(isinstance(n, ast.Raise) and n.exc is not None
               and name_mentions(ast.unparse(n.exc), "ConfigError") for n in ast.walk(node)):
            names.append("raise")
        if names:
            found[node.name] = names
    return found


def test_config_check_finder_finds_readers_and_raises():
    source = (
        "def _cmd_a(v):\n"
        "    return _lookup(v, 'x', ...)\n"
        "def _cmd_b(v):\n"
        "    if v:\n"
        "        raise ConfigError('config.x: bad')\n"
        "def _build_c(v):\n"
        "    try:\n"
        "        return v\n"
        "    except ValueError as exc:\n"
        "        raise ConfigError(str(exc)) from exc\n"
        "def main():\n"
        "    try:\n"
        "        pass\n"
        "    except ConfigError:\n"
        "        raise\n"
        "def _cmd_d(v):\n"
        "    return v['x']\n"
    )
    assert config_checks(source) == {
        "_cmd_a": ["_lookup"], "_cmd_b": ["ConfigError", "raise"],
        "_build_c": ["ConfigError", "raise"], "main": ["ConfigError"],
    }


def test_config_domains_live_in_the_field_table():
    # a command reads the values _parse checked against its field table; only
    # the reader and the builders, whose checks need the model, raise
    # ConfigError
    checks = config_checks((ROOT / "src/covbvm/cli.py").read_text())
    assert [name for name in checks if name.startswith("_cmd_")] == []
    raisers = {name for name, names in checks.items() if "raise" in names}
    assert {name for name in raisers if not name.startswith("_build_")} <= {
        "_lookup", "_numeric", "_parse"
    }


def foreign_warnings(source: str, allowed) -> list[str]:
    """``line: category`` for each ``warnings.warn`` call whose category is
    not a name in ``allowed``; a call without one warns as UserWarning."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "warn"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "warnings"
        ):
            continue
        given = [kw.value for kw in node.keywords if kw.arg == "category"] + node.args[1:2]
        category = ast.unparse(given[0]) if given else "UserWarning"
        if category not in allowed:
            found.append(f"{node.lineno}: {category}")
    return found


def test_warning_checker_finds_foreign_categories():
    source = (
        "warnings.warn('a', RuntimeWarning)\n"
        "warnings.warn('b')\n"
        "warnings.warn('c', LowDraws)\n"
        "warnings.warn('d', category=errors.LowDraws)\n"
        "warnings.warn('e', category=PoorMixing, stacklevel=2)\n"
        "log.warn('f', RuntimeWarning)\n"
    )
    allowed = {"LowDraws", "PoorMixing"}
    assert foreign_warnings(source, allowed) == [
        "1: RuntimeWarning", "2: UserWarning", "4: errors.LowDraws"
    ]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_warnings_use_package_categories(path):
    allowed = {
        name for name, obj in vars(covbvm.errors).items()
        if isinstance(obj, type) and issubclass(obj, Warning)
    }
    assert foreign_warnings(path.read_text(), allowed) == []


def module_level_imports(source: str, package: str) -> list[str]:
    """``line: module`` for each import of ``package`` or its submodules that
    runs when the module is imported: anywhere outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            found.extend(f"{child.lineno}: {name}" for name in names
                         if name.split(".")[0] == package)
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_import_checker_finds_eager_imports():
    source = (
        "import numpy as np, scipy.linalg\n"
        "from scipy.special import ndtr\n"
        "from .scipy import helper\n"
        "import scipyx\n"
        "def f():\n"
        "    from scipy import special\n"
        "class C:\n"
        "    import scipy\n"
        "    def g(self):\n"
        "        import scipy.linalg\n"
        "try:\n"
        "    import scipy.stats\n"
        "except ImportError:\n"
        "    pass\n"
    )
    assert module_level_imports(source, "scipy") == [
        "1: scipy.linalg", "2: scipy.special", "8: scipy", "12: scipy.stats"
    ]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src/covbvm").glob("*.py")), ids=lambda p: p.name
)
def test_package_imports_scipy_only_where_used(path):
    # importing scipy.special or scipy.linalg takes longer than numpy; the
    # functions that need them import them, so other commands never pay
    assert module_level_imports(path.read_text(), "scipy") == []


def thread_imports(source: str) -> list[str]:
    """``line: module`` for each import of ``threading`` or of
    ``concurrent`` and its submodules, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend(f"{node.lineno}: {name}" for name in names
                     if name.split(".")[0] in ("threading", "concurrent"))
    return sorted(found, key=lambda entry: int(entry.split(":")[0]))


def test_thread_import_checker_finds_every_form():
    source = (
        "import threading\n"
        "from concurrent.futures import Future\n"
        "import os, concurrent.futures as cf\n"
        "def f():\n"
        "    from threading import Lock\n"
        "from . import threading\n"
        "import threadingx\n"
    )
    assert thread_imports(source) == [
        "1: threading", "2: concurrent.futures", "3: concurrent.futures", "5: threading"
    ]


@pytest.mark.parametrize(
    "path", [path for path in PACKAGE_MODULES if path.name != "posterior.py"],
    ids=lambda p: p.name,
)
def test_threads_only_in_the_kernel(path):
    # the inverse-Wishart kernel joins its one worker before it returns, so
    # no thread outlives a call and a forked process inherits none
    assert thread_imports(path.read_text()) == []


# numpy functions that pyproject.toml's floor, numpy 1.24, does not have, by
# the module that holds them; ``ndarray.astype`` is old, ``numpy.astype`` new
NEWER_NUMPY = {
    "numpy": {"vecdot", "matrix_transpose", "unstack", "concat", "permute_dims", "astype"},
    "numpy.linalg": {"vecdot"},
}


def newer_numpy_uses(source: str) -> list[str]:
    """``line: module.name`` for each import or attribute read of a
    ``NEWER_NUMPY`` function, through whatever name numpy is bound to."""
    tree = ast.parse(source)
    bound = {}  # local name -> the numpy module it stands for
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    # `import numpy.linalg` binds `numpy`
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and not node.level and (
            (node.module or "").split(".")[0] == "numpy"
        ):
            for alias in node.names:
                if alias.name in NEWER_NUMPY.get(node.module, ()):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parts, value = [], node.value
        while isinstance(value, ast.Attribute):
            parts.insert(0, value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in bound:
            module = ".".join([bound[value.id], *parts])
            if node.attr in NEWER_NUMPY.get(module, ()):
                found.append((node.lineno, f"{module}.{node.attr}"))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_numpy_checker_finds_every_form():
    source = (
        "import numpy as np\n"
        "import numpy.linalg\n"
        "from numpy import concat, linalg as la\n"
        "from numpy.linalg import vecdot as vd, norm\n"
        "x = np.vecdot(a, b) + np.linalg.vecdot(a, b)\n"
        "y = numpy.linalg.vecdot(a, b), la.vecdot(a, b), np.astype(a, float)\n"
        "z = a.astype(float), np.linalg.norm(a), np.concatenate(a), la.svd\n"
        "w = np.unstack(a), np.permute_dims(a, (1, 0)), np.matrix_transpose(a)\n"
    )
    assert newer_numpy_uses(source) == [
        "3: numpy.concat", "4: numpy.linalg.vecdot",
        "5: numpy.linalg.vecdot", "5: numpy.vecdot",
        "6: numpy.astype", "6: numpy.linalg.vecdot", "6: numpy.linalg.vecdot",
        "8: numpy.matrix_transpose", "8: numpy.permute_dims", "8: numpy.unstack",
    ]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src/covbvm").glob("*.py")), ids=lambda p: p.name
)
def test_package_uses_numpy_of_its_floor(path):
    # CI's oldest-numpy job runs on numpy 1.24, which lacks these functions
    assert newer_numpy_uses(path.read_text()) == []


# one small config per CLI command that needs no scipy function
NUMPY_ONLY_COMMANDS = [
    {"command": "bvm-functional", "data": {"n": 400, "seed": 3},
     "prior": {"kind": "inverse_wishart"}, "functional": {"kind": "trace"},
     "monte_carlo": {"posterior_draws": 1000}},
    {"command": "bridge", "data": {"n": 400}, "delta_grid": [0.2, 0.3, 0.5, 0.7],
     "monte_carlo": {"posterior_draws": 1000, "replications": 2}},
    {"command": "contraction", "data": {"n": 500}, "prior": {"kind": "inverse_wishart"},
     "delta_grid": [0.1, 0.2, 0.5], "monte_carlo": {"posterior_draws": 1000, "replications": 2}},
    {"command": "coverage", "data": {"n": 300, "seed": 2}, "prior": {"kind": "inverse_wishart"},
     "functional": {"kind": "trace"},
     "monte_carlo": {"posterior_draws": 100, "replications": 100}},
    {"command": "coverage", "data": {"n": 300, "seed": 2}, "prior": {"kind": "inverse_wishart"},
     "selection": {"s_minus": 1, "s_plus": 1},
     "monte_carlo": {"posterior_draws": 100, "replications": 100}},
    {"command": "budget",
     "budget": {"context": "posterior_independence", "rho": 0.1, "rho_w": 0.2, "n": 50}},
]

# the densities and the reference CDF, the package's callers of scipy
DENSITIES = """
import numpy as np
from covbvm import (ChiSquareMixture, DatasetSpec, InverseWishartPrior, SpdMatrix,
                    log_likelihood, model_from_spectrum, sample_dataset)
model = model_from_spectrum([2.0, 1.0], [1, 2], rotation_seed=0)
data = sample_dataset(DatasetSpec(model, "gaussian", 200, seed=5))
sigma = model.sigma_star.entries + 0.1 * np.eye(3)
values = [
    log_likelihood(sigma, data),
    InverseWishartPrior(SpdMatrix(np.eye(3)), 3.0).log_density(sigma),
    *ChiSquareMixture(np.array([4.0, 8.0 / 9.0, 8.0 / 9.0])).cdf(np.linspace(0.0, 20.0, 9)),
]
"""

FRESH_INTERPRETER = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import covbvm, covbvm.cli
loaded = {"import": scipy_modules()}
for i, cfg in enumerate(json.loads(sys.argv[1])):
    cfg = {"schema_version": 1, "seed": 17,
           "model": {"mu": [2.0, 1.0], "mult": [1, 2], "rotation_seed": 0}, **cfg}
    covbvm.cli.run(cfg, out_override=f"out{i}")
loaded["commands"] = scipy_modules()
exec(sys.argv[2])
loaded["densities"] = scipy_modules()
print(json.dumps({"loaded": loaded, "values": [float(v).hex() for v in values]}))
"""


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    """What a fresh interpreter loads of scipy when it imports the package,
    runs the numpy-only commands and then evaluates the densities; and the
    densities' values.  One process serves every test that reads it."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER, json.dumps(NUMPY_ONLY_COMMANDS), DENSITIES],
        capture_output=True, text=True, cwd=tmp_path_factory.mktemp("fresh"),
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_leaves_out_heavy_scipy_modules(fresh_interpreter):
    assert fresh_interpreter["loaded"]["import"] == []


def test_numpy_only_commands_load_no_scipy(fresh_interpreter):
    assert fresh_interpreter["loaded"]["commands"] == []


def test_scipy_loaded_on_first_use_gives_the_same_values(fresh_interpreter):
    # the first density evaluation loads scipy in the fresh interpreter; here
    # scipy is imported before the package's functions run
    import scipy.linalg
    import scipy.special

    loaded = fresh_interpreter["loaded"]["densities"]
    assert {scipy.linalg.__name__, scipy.special.__name__} <= set(loaded)
    scope = {}
    exec(DENSITIES, scope)
    assert fresh_interpreter["values"] == [float(v).hex() for v in scope["values"]]

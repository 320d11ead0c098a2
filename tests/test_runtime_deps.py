"""The runtime needs only numpy, and only where an array runs (the noisy and
simulation oracles): the reference libraries stay in the tests. A qpk
process loads no dataclasses, and only the qpk modules its command runs."""

import os
import pathlib
import subprocess
import sys

import pytest

from qpk.models import FAMILIES, config_to_json

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Installed for the tests' independent references, never for qpk itself.
TEST_ONLY = ("scipy", "mpmath", "hypothesis")

#: Commands whose solves are scalar; README lists them as the ones that run
#: without numpy.
SCALAR_COMMANDS = [
    ["equilibrium", "--c1", "3", "--c2", "1"],
    ["monopoly", "--c2", "1"],
    ["duopoly-best-response", "--server", "1", "--other-price", "1"],
    ["duopoly-nash"],
    ["estimate-density", "--c2", "1", "--c1-start", "3", "--delta", "0.2", "--steps", "3"],
]

#: Every sweep curve, each a point-by-point sweep of the scalar maps.
SWEEPS = {what: ["sweep", "--what", what, "--n", "20", "--c2", "1"]
          for what in ("revenue", "beta1", "g1", "g2", "r1-and-c1")}

#: Every command but the sweeps, on its config, with the qpk modules it runs
#: without: a command imports estimation or duopoly only if it calls it.
FOOTPRINTS = [
    ("ex1_uniform", ["equilibrium", "--c1", "3", "--c2", "1"], {"estimation", "duopoly"}),
    ("ex1_uniform", ["monopoly", "--c2", "1"], {"estimation", "duopoly"}),
    ("ex1_uniform", ["duopoly-best-response", "--server", "1", "--other-price", "1"],
     {"estimation"}),
    ("ex1_uniform", ["duopoly-nash"], {"estimation"}),
    ("ex3", ["duopoly-symmetric"], {"estimation"}),
    ("ex1_expo", ["estimate-exp", "--c1", "3", "--c2", "1", "--delta", "0.2"], {"duopoly"}),
    ("ex1_expo", ["estimate-param", "--family", "exponential", "--c2", "1",
                  "--prices", "3.0,3.1"], {"duopoly"}),
    ("ex1_uniform", ["estimate-density", "--c2", "1", "--c1-start", "3", "--delta", "0.2",
                     "--steps", "3"], {"duopoly"}),
    ("ex3", ["discover-classes", "--classes", "2:0.1,3:0.7,4:0.3", "--c1-init", "2"],
     {"duopoly"}),
]

# runs the CLI as `python -m qpk.cli` does, then reports the modules it loaded
CLI_PROBE = ("import sys\n"
             "from qpk.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(*sorted(sys.modules), file=sys.stderr)\n"
             "sys.exit(code)")


def _python(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_no_test_only_module(tmp_path, ex2_uniform):
    # importing loads no numpy, an array call (the DES oracle's simulation)
    # does; neither loads a test-only module
    code = ("import sys, qpk, qpk.cli\n"
            "roots = lambda: ' '.join(sorted({m.split('.')[0] for m in sys.modules}))\n"
            "print(roots())\n"
            f"cfg = qpk.config_from_json({config_to_json(ex2_uniform)!r})\n"
            "qpk.des_oracle(cfg, 50.0, 0).measure(3.0, 1.0)\n"
            "print(roots())")
    imported, called = (set(line.split()) for line in
                        _python(tmp_path, "-c", code).stdout.splitlines())
    assert "numpy" not in imported
    assert "numpy" in called
    assert called.isdisjoint(TEST_ONLY), sorted(called & set(TEST_ONLY))


def test_bare_import_loads_no_submodule(tmp_path):
    # every public name of the package is looked up on first use
    code = "import sys, qpk\nprint(*sorted(sys.modules))"
    loaded = set(_python(tmp_path, "-c", code).stdout.split())
    assert {m for m in loaded if m.startswith("qpk.")} <= {"qpk.errors"}
    assert "dataclasses" not in loaded


def _cli_modules(tmp_path, cfg, argv) -> set:
    """The modules a CLI process on cfg loaded, once it printed a result."""
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(cfg))
    proc = _python(tmp_path, "-c", CLI_PROBE, argv[0], "--config", str(path), *argv[1:])
    assert proc.stdout
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("config, argv", [
    *[pytest.param(name, argv, id=f"{name}-{argv[0]}")
      for name in ("ex1_uniform", "ex1_gamma") for argv in SCALAR_COMMANDS],
    pytest.param("ex3", ["duopoly-symmetric"], id="ex3-duopoly-symmetric"),
    pytest.param("ex1_expo", ["estimate-exp", "--c1", "3", "--c2", "1", "--delta", "0.2"],
                 id="ex1_expo-estimate-exp"),
    pytest.param("ex3", ["discover-classes", "--classes", "2:0.1,3:0.7,4:0.3", "--c1-init", "2"],
                 id="ex3-discover-classes"),
    *[pytest.param(f"ex1_{family}", ["estimate-param", "--family", family, "--c2", "1",
                                     "--prices", "3.0,3.05,3.1,3.15"],
                   id=f"ex1_{family}-estimate-param") for family in ("uniform", "gamma")],
    *[pytest.param(name, argv, id=f"{name}-sweep" + ("" if what == "revenue" else f"-{what}"))
      for name in ("ex1_uniform", "ex1_gamma") for what, argv in SWEEPS.items()],
])
def test_scalar_commands_run_without_numpy(tmp_path, request, config, argv):
    assert "numpy" not in _cli_modules(tmp_path, request.getfixturevalue(config), argv)


def test_no_family_has_more_than_two_parameters():
    # the parametric fit solves its damped normal equations in closed form
    assert all(len(law.param_names()) <= 2 for law in FAMILIES.values())


@pytest.mark.parametrize("config, argv, unused", [
    *[pytest.param(*row, id=row[1][0]) for row in FOOTPRINTS],
    *[pytest.param("ex1_gamma", argv, {"estimation", "duopoly"}, id=f"sweep-{what}")
      for what, argv in SWEEPS.items()],
])
def test_commands_load_only_the_modules_they_run(tmp_path, request, config, argv, unused):
    loaded = _cli_modules(tmp_path, request.getfixturevalue(config), argv)
    assert "qpk.cli" in loaded
    assert "dataclasses" not in loaded
    assert loaded.isdisjoint(f"qpk.{m}" for m in unused)

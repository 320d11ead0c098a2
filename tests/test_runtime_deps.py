"""The runtime needs only numpy, and only where an array runs: the reference
libraries stay in the tests."""

import os
import pathlib
import subprocess
import sys

import pytest

from qpk.models import config_to_json

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

# runs the CLI as `python -m qpk.cli` does, then reports whether numpy was loaded
CLI_PROBE = ("import sys\n"
             "from qpk.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print('numpy' in sys.modules, file=sys.stderr)\n"
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


@pytest.mark.parametrize("config, argv", [
    *[pytest.param(name, argv, id=f"{name}-{argv[0]}")
      for name in ("ex1_uniform", "ex1_gamma") for argv in SCALAR_COMMANDS],
    pytest.param("ex3", ["duopoly-symmetric"], id="ex3-duopoly-symmetric"),
    *[pytest.param(name, argv, id=f"{name}-sweep" + ("" if what == "revenue" else f"-{what}"))
      for name in ("ex1_uniform", "ex1_gamma") for what, argv in SWEEPS.items()],
])
def test_scalar_commands_run_without_numpy(tmp_path, request, config, argv):
    path = tmp_path / f"{config}.json"
    path.write_text(config_to_json(request.getfixturevalue(config)))
    proc = _python(tmp_path, "-c", CLI_PROBE, argv[0], "--config", str(path), *argv[1:])
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == "False"

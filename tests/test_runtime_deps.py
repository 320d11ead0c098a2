"""The runtime needs only numpy: the reference libraries stay in the tests."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Installed for the tests' independent references, never for qpk itself.
TEST_ONLY = ("scipy", "mpmath", "hypothesis")


def test_import_loads_no_test_only_module(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, qpk, qpk.cli\n"
            "print('\\n'.join(sorted({m.split('.')[0] for m in sys.modules})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "numpy" in loaded
    assert loaded.isdisjoint(TEST_ONLY), sorted(loaded & set(TEST_ONLY))

"""numpy and scipy are the only third-party modules the package imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in a fresh interpreter: records every import statement executed by a
# fapolar module while ``fapolar`` and ``fapolar.cli`` load and while the
# channel quantizer runs (it imports scipy.special when first called), and
# whether scipy.special was loaded by the package import itself. Modules that
# numpy and scipy load for themselves are theirs, not the package's.
PROBE = """
import builtins, json, sys
seen, real_import = set(), builtins.__import__

def recording_import(name, globals=None, locals=None, fromlist=(), level=0):
    if level == 0 and (globals or {}).get("__name__", "").split(".")[0] == "fapolar":
        seen.add(name.split(".")[0])
    return real_import(name, globals, locals, fromlist, level)

builtins.__import__ = recording_import
import fapolar, fapolar.cli
special_at_import = "scipy.special" in sys.modules
fapolar.lutdesign.quantize_channel(0.5, 0.5, 1)
print(json.dumps({"imported": sorted(seen), "special_at_import": special_at_import}))
"""


def test_package_imports_only_numpy_and_scipy_beyond_the_standard_library():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    third_party = set(probe["imported"]) - set(sys.stdlib_module_names) - {"fapolar"}
    assert third_party == {"numpy", "scipy"}
    # scipy.special is most of the import time, and only the LUT design uses it
    assert not probe["special_at_import"]

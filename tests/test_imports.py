"""Import hygiene: the library needs scipy.special and scipy.fft only.

scipy.stats and scipy.signal take most of the library's import time and
memory; the tests use them as oracles, so this check runs in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import scalefree

SRC = str(Path(scalefree.__file__).resolve().parent.parent)

SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np
    import scalefree.cli
    from scalefree.grouptests import wilcoxon_signed_rank
    from scalefree.scaling import welch_psd
    from scalefree.wavelet import Signal

    out = sys.argv[1]
    with open(out + ".json", "w") as fh:
        json.dump({"synthetic": {"subjects": 3,
                                 "maps": {"F": 3, "A": 2, "U": 1}},
                   "output_dir": out}, fh)
    assert scalefree.cli.main(["analyze", "--config", out + ".json"]) == 0
    x = np.random.default_rng(0).standard_normal(256)
    wilcoxon_signed_rank(x[:13], 0.0, "two")  # the normal approximation
    welch_psd(Signal(x, 1.0), window="rect")
    print(json.dumps(sorted(m for m in sys.modules
                            if m.startswith(("scipy.stats", "scipy.signal")))))
""")


def test_library_never_imports_scipy_stats_or_signal(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "study")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "study" / "pvalues.csv").is_file()
    assert json.loads(proc.stdout.splitlines()[-1]) == []

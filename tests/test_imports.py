"""Import hygiene: the analysis path loads no scipy, and the battery loads
only scipy.special, at its first p-value; README's example runs.

scipy's import takes most of the library's import time and memory (the
tests use scipy.fft, scipy.stats and scipy.signal as oracles), so this
check runs in a fresh interpreter.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import scalefree

SRC = str(Path(scalefree.__file__).resolve().parent.parent)

SCRIPT = textwrap.dedent("""
    import json, sys
    import scalefree.cli
    from scalefree.grouptests import wilcoxon_signed_rank
    from scalefree.pipeline import AnalysisConfig, analyze_series
    from scalefree.scaling import welch_psd
    from scalefree.synth import GeneratorSpec, generate

    def loaded(*packages):
        return sorted(m for m in sys.modules if m.split(".")[0] in packages
                      or ".".join(m.split(".")[:2]) in packages)

    out = sys.argv[1]
    sig = generate(GeneratorSpec("mrw", 0.7, 2048, seed=3, lambda2=0.03))
    analyze_series(sig, AnalysisConfig(synthetic={}))
    welch_psd(sig)
    main = scalefree.cli.main
    assert main(["synth", "--kind", "fgn", "--hurst", "0.7", "--length",
                 "4096", "--seed", "3", "--out", out + "_sig.csv"]) == 0
    assert main(["spectrum", "--in", out + "_sig.csv", "--method", "welch",
                 "--out", out + "_spec.csv"]) == 0
    analysis = loaded("scipy")

    with open(out + ".json", "w") as fh:
        json.dump({"synthetic": {"subjects": 3,
                                 "maps": {"F": 3, "A": 2, "U": 1}},
                   "output_dir": out}, fh)
    assert main(["analyze", "--config", out + ".json"]) == 0
    wilcoxon_signed_rank(sig.samples[:13], 0.0, "two")  # normal approximation
    print(json.dumps({"analysis": analysis,
                      "special": "scipy.special" in sys.modules,
                      "battery": loaded("scipy.fft", "scipy.stats",
                                        "scipy.signal")}))
""")


def test_analysis_loads_no_scipy_and_battery_only_special(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "study")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "study" / "pvalues.csv").is_file()
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "analysis": [], "special": True, "battery": []}


def test_readme_example_runs():
    """README's first python block, so the public API it names stays
    importable."""
    text = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})

"""The demos narrate the registry's experiments: they print the numbers of
the checks in ``hydrostat.checks``, and README lists every one of them."""

import re
import runpy
from pathlib import Path

from hydrostat import checks

ROOT = Path(__file__).resolve().parent.parent


def demo_lines(name, capsys):
    """The lines ``demos/<name>`` prints, run in this process."""
    runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_demo_01_prints_criterion_02(capsys):
    result = checks.cancellation()
    lines = demo_lines("01_structural_identities.py", capsys)
    for label, key in [("idempotence residual      ", "idempotence"),
                       ("divergence compatibility  ", "divergence"),
                       ("parity closure of Q       ", "parity")]:
        assert f"  {label}: {result[key]:.2e}" in lines
    assert f"  transport cancellation    : {result['cancellation']:.2e}  " \
           "(|<Q(v,v), v>| / |v|^3)" in lines


def test_demo_05_prints_criterion_06(capsys):
    result = checks.picard_consistency()
    lines = demo_lines("05_picard_contraction.py", capsys)
    assert ("sup-Gevrey distance to the time stepper on the shared grid: "
            f"{result['sup_diff_65_nodes']:.3e}") in lines


def test_readme_demo_block_lists_every_demo():
    listed = re.findall(r"^python demos/(\S+\.py)", (ROOT / "README.md").read_text(),
                        re.MULTILINE)
    assert listed == sorted(path.name for path in (ROOT / "demos").glob("*.py"))

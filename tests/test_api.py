import math
import re
from pathlib import Path

import scnls

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "Field", "Grid", "SobolevIndex", "make_grid", "make_gaussian",
    "transform", "inverse_transform", "norm", "lp_norm", "resample",
    "tail_fraction", "save_field", "load_field",
    "NlsState", "NlsRunConfig", "solve_nls_stack", "mass", "semiclassical_energy",
    "GrenierState", "CorrectorState", "WkbRunConfig", "solve_grenier_stack",
    "solve_limit_stack", "reconstruct",
    "SweepConfig", "GaussianSpec", "ScalingParams", "StudyReport",
    "wkb_error_study", "small_time_study",
    "ghost_separation_study", "ghost_higher_order_study",
    "inflation_bookkeeping", "corollary_bookkeeping",
    "GuardError", "ResolutionError", "SingularityError", "NonFiniteError",
]


def test_public_names_are_pinned_and_resolve():
    assert scnls.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(scnls, name) is not None, name


def test_readme_library_sketch_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.DOTALL)
    exec(compile(code, str(README), "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))

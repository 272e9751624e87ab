import ast
import math
import re
from pathlib import Path

import scnls

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(scnls.__file__).resolve().parent

PUBLIC_NAMES = [
    "Field", "Grid", "SobolevIndex", "make_grid", "make_gaussian",
    "transform", "inverse_transform", "norm", "lp_norm", "resample",
    "tail_fraction", "save_field", "load_field",
    "NlsState", "NlsRunConfig", "solve_nls_stack", "mass", "semiclassical_energy",
    "GrenierState", "WkbRunConfig", "solve_grenier_stack",
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


def numpy_fft_lines(path):
    """Lines of path's code (docstrings aside) that reach numpy.fft: the
    attribute np.fft or numpy.fft, or an import of numpy.fft or from it."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(f"{name}.".startswith(("np.fft.", "numpy.fft.")) for name in names):
            yield node.lineno


def test_only_grid_reaches_numpy_fft():
    # grid.py is the one home of the transform convention; every other
    # module transforms through it
    uses = {path.name: list(numpy_fft_lines(path)) for path in sorted(SRC.glob("*.py"))}
    assert uses.pop("grid.py")
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_only_grid_reads_gradient_factors():
    # grid.py is the one home of the spectral derivatives (_derivatives,
    # gradients, gradient_max); every other module differentiates through it
    readers = {path.name for path in SRC.glob("*.py")
               if any(isinstance(node, ast.Attribute) and node.attr == "gradient_factors"
                      for node in ast.walk(ast.parse(path.read_text())))}
    assert readers == {"grid.py"}

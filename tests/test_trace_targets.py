"""Every function the benchmark's tracer reports on exists in the package.

``perfbench/spans.py`` names the traced functions whose calls, self times and
work counts become per-layer metrics. A name that no longer resolves is not an
error there: its metric silently reads 0. This test resolves each name, so a
change that deletes or renames a traced function fails here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Names that already resolve to nothing; each is a metric that reads 0.
KNOWN_UNRESOLVED = {
    "prslab.energy_attack_experiment",
    "toyperm.tv_distance",
    "toyperm.enumerate_joint_distribution",
    "toyperm.enumerate_marginal_distribution",
    "toyperm.distinct_tree_set",
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names(spans) -> set:
    names = set(spans.COUNTS) | set(spans._CALLS) | set(spans._SELF)
    names |= {name for name, _, _ in spans._WORK}
    return names | set(spans.ENUMERATE) | set(spans.UNTRACED)


def _resolves(name: str) -> bool:
    """True when ``name`` is a function the tracer can rebind: a public function
    defined in its module, or the eigensystem method of ``LocalHamiltonian``."""
    layer, attr = name.split(".")
    module = importlib.import_module(f"scramblab.{layer}")
    if name == "qcore.eigensystem":
        return inspect.isfunction(module.LocalHamiltonian.eigensystem)
    fn = vars(module).get(attr)
    return inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_only_the_known_names_are_unresolved():
    unresolved = {name for name in _traced_names(_spans()) if not _resolves(name)}
    assert unresolved == KNOWN_UNRESOLVED

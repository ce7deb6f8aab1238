"""README's certificate-gate table names real holders, and no function it
names takes a gate or an extent as a parameter."""

import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the names gates and extents were once passed under; each is a module
# constant now, next to the function that checks it
GATE_PARAMETERS = {
    "m_range", "n_range", "tol", "m_window", "target_tol", "n_cap",
    "center", "width", "band", "r2_min", "floor", "k_max", "q_max", "n_max",
}

# the certificate functions whose gates or extents were parameters
CHECKERS = {
    "verify.gram_matrix", "verify.dyadic_sum_check", "verify.completeness_check",
    "verify.gaussian_spectrum", "verify.fit_decay", "verify.derivative_decay_check",
    "verify.mixed_bound_audit", "mollifier.derivative_bound_audit",
}


def _held_by() -> list:
    """Every `module.name` in the "Held by" column of README's gate table."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("### Certificate gates"):]
    section = section[:section.index("\n## ")]
    rows = [ln for ln in section.splitlines() if ln.startswith("| ")]
    assert rows[0].split("|")[3].strip() == "Held by"
    names = []
    for row in rows[1:]:
        cells = re.split(r"(?<!\\)\|", row)
        names += re.findall(r"`(\w+\.\w+)`", cells[3])
    return names


def test_gate_table_names_resolve():
    names = _held_by()
    assert len(names) >= 20
    for name in names:
        module, attr = name.split(".")
        mod = importlib.import_module(f"lambertwave.{module}")
        assert hasattr(mod, attr), name
    assert CHECKERS <= set(names)


def test_gate_table_functions_take_no_gate():
    for name in _held_by():
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"lambertwave.{module}"), attr)
        if inspect.isfunction(obj):
            params = set(inspect.signature(obj).parameters)
            assert not params & GATE_PARAMETERS, (name, params & GATE_PARAMETERS)

"""The traced benchmark's patch targets exist in ``src``.

``perfbench/spans.py`` wraps layer entry points by name (``getattr``
on modules and classes), so a name dropped or renamed in ``src``
would otherwise surface only when someone runs ``perfbench/run.py
--trace 1``.
"""

import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if inspect.isclass(owner) else getattr(
        owner, attr)


def test_perfbench_patch_targets_resolve_and_undo(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    patches = spans.Patches()
    try:
        spans.install_simulation(patches)
        spans.install_storage(patches)
        spans.install_tables(patches)
        spans.install_serve(patches)
        installed = list(patches._undo)
    finally:
        patches.undo()
    assert installed
    for owner, attr, original in installed:
        assert _current(owner, attr) is original, f"{owner}.{attr}"

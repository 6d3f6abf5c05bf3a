"""The traced benchmark run (``bench/run.py --trace 1``) wraps the program's
functions by module and name.  Installing its wrappers here fails as soon as
a change removes or renames one of them, instead of the traced run crashing.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from run import install_tracer  # noqa: E402
from tracer import Patches, Tracer, package_modules  # noqa: E402

from dualstream import autodiff, model  # noqa: E402


def test_install_tracer_finds_every_function_it_wraps_and_restores_them():
    before = {m.__name__: dict(vars(m)) for m in package_modules()}
    record = autodiff.GradTape.record
    patches = Patches()
    try:
        install_tracer(patches, Tracer())
        assert model.forward.__wrapped__ is before["dualstream.model"]["forward"]
        assert autodiff.GradTape.record is not record
    finally:
        patches.restore()
    for m in package_modules():
        assert all(vars(m)[k] is v for k, v in before[m.__name__].items()), m.__name__
    assert autodiff.GradTape.record is record

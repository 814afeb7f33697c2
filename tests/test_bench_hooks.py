"""The benchmark's trace hooks still find every entry point they wrap.

`perfbench/run.py::install_tracer` rebinds zhuforge functions and methods
by name; a refactor that renames or drops one of them would otherwise
only show when the benchmark runs with ``--trace 1``.
"""

import importlib.util
import sys
from pathlib import Path

from zhuforge import cli
from zhuforge.zhu import ZhuAlgebra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclass looks its module up in sys.modules while the body runs.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_install_tracer_wraps_and_restores_every_hook():
    names = ("tracer", "families", "perfbench_run")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        tracer = load("tracer", "tracer.py")
        families = load("families", "families.py")
        run = load("perfbench_run", "run.py")
        original = ZhuAlgebra.canonical
        t = tracer.Tracer()
        try:
            run.install_tracer(t, cli, families)
            assert ZhuAlgebra.canonical is not original
        finally:
            t.restore()
        assert ZhuAlgebra.canonical is original
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module

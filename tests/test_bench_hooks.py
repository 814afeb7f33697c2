"""The benchmark's trace hooks still find every entry point they wrap.

`perfbench/run.py::install_tracer` rebinds zhuforge functions and methods
by name; a refactor that renames or drops one of them would otherwise
only show when the benchmark runs with ``--trace 1``.
"""

import sys

from conftest import load_perfbench
from zhuforge import cli
from zhuforge.zhu import ZhuAlgebra


def test_install_tracer_wraps_and_restores_every_hook():
    names = ("tracer", "families", "perfbench_run")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        tracer = load_perfbench("tracer", "tracer.py")
        families = load_perfbench("families", "families.py")
        run = load_perfbench("perfbench_run", "run.py")
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

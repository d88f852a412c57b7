"""The benchmark's tracer binds package names; a rename must fail here first.

perfbench/run.py imports every package layer and perfbench/tracer.py wraps
functions, methods and result keys by name.  This loads the package the way
the benchmark does, installs every instrument and puts everything back.

The benchmark's self-test also runs here, so a package change that breaks a
workload oracle, a metric or the digest fails the tests, not the benchmark.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SELFTEST = os.path.join(ROOT, "perfbench", "selftest.py")


@pytest.fixture
def isolated_imports():
    # the benchmark re-imports the package afresh; later tests must keep
    # seeing the modules they imported at collection time
    path = list(sys.path)
    modules = dict(sys.modules)
    try:
        yield
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - set(modules):
            del sys.modules[name]
        sys.modules.update(modules)


def test_tracer_binds_every_package_name(isolated_imports):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    M = run.load_package()
    tracing = run.tracing
    tracer = tracing.Tracer()
    patch = tracing.Patcher(run.package_modules())
    raw = (M.graphs.min_sup_cycle, M.kernels.ProductKernel.value)
    try:
        tracing.install_corpus(tracer, M, patch)
        tracing.install_layers(tracer, M, patch)
        tracing.install_dyadic(tracer, M, patch)
        assert M.graphs.min_sup_cycle is not raw[0]
        # the kernels build their tables through the wrapped search, so
        # graphs.min_sup_cycle.calls counts the tables built
        assert M.kernels.min_sup_cycle is M.graphs.min_sup_cycle
    finally:
        patch.restore()
    assert (M.graphs.min_sup_cycle, M.kernels.ProductKernel.value) == raw
    assert M.kernels.min_sup_cycle is raw[0]


def test_benchmark_selftest_passes():
    # every workload's oracles, metrics and digest on tiny inputs, in a
    # process of its own as the benchmark runs them
    done = subprocess.run([sys.executable, SELFTEST], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest passed")

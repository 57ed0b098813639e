import functools
import importlib.util
from pathlib import Path

import mpmath as mp
import pytest

from padelab import algebra, checkers, cli, measure as ms, pade, potential as pt, scheme as sch
from padelab.errors import SolveFailure
from padelab.oracles import arcsine_measure


@pytest.fixture(autouse=True)
def _default_precision():
    algebra.set_precision(256)
    yield


QUAD_TOL = mp.mpf("1e-40")


@pytest.fixture
def miss_kernel_at(monkeypatch):
    """A function of ``bits`` that makes every kernel extraction of the solve
    at that precision miss its residual bound, as a system too
    ill-conditioned for it does; at any other precision the extraction and
    its own bound run as usual."""
    solve = pade.kernel_vector

    def miss(bits: int) -> None:
        def kernel_vector(matrix):
            if mp.mp.prec == bits:
                raise SolveFailure(f"kernel residual bound missed at {bits} bits")
            return solve(matrix)

        monkeypatch.setattr(pade, "kernel_vector", kernel_vector)

    return miss


@pytest.fixture(scope="session")
def arcsine():
    algebra.set_precision(256)
    return arcsine_measure()


@pytest.fixture(scope="session")
def arcsine_family(arcsine):
    """Classical approximants to the arcsine transform, small n plus 20 and 40."""
    algebra.set_precision(256)
    ns = list(range(1, 11)) + [20, 40]
    family = pade.solve_family(
        arcsine, ms.RationalPart.empty(), sch.ClassicalScheme(), ns, QUAD_TOL
    )
    assert not family.failures, family.failures
    return family


@pytest.fixture(scope="session")
def unit_interval_system():
    algebra.set_precision(256)
    return pt.IntervalSystem([(-1, 1)])


@pytest.fixture(scope="session")
def section4_record(tmp_path_factory):
    """Full run of the bundled three-pole config at its default n range."""
    algebra.set_precision(256)
    config = cli.load_config("paper_section4")
    out = tmp_path_factory.mktemp("section4")
    record = cli.run(config, out_dir=str(out))
    assert not record.family.failures, record.family.failures
    return record


def _benchmark_workloads():
    """``perfbench/workloads.py``, which imports only the standard library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


@pytest.fixture(scope="session")
def workload_solves():
    """Each benchmark workload (``perfbench/workloads.py``, seed 0) solved by
    ``pade.solve_family``: per workload, every call of ``kernel_vector``,
    ``poly_roots``, ``_shifted_residual`` and ``recover_p`` in order, as
    (name, precision, arguments, result)."""
    calls = []

    def recorded(name, fn):
        def call(*args):
            result = fn(*args)
            calls.append((name, mp.mp.prec, args, result))
            return result

        return call

    solves = {}
    with pytest.MonkeyPatch.context() as patch:
        for name in ("kernel_vector", "poly_roots", "_shifted_residual", "recover_p"):
            patch.setattr(pade, name, recorded(name, getattr(pade, name)))
        for name, workload in _benchmark_workloads().items():
            config = cli.ProblemConfig(workload.config(0))
            with algebra.working_precision(config.precision_bits):
                family = pade.solve_family(config.build_measure(), config.build_rational(),
                                           config.build_scheme(), config.n_range,
                                           config.quad_tol())
            assert not family.failures, family.failures
            solves[name], calls = calls, []
    return solves


@pytest.fixture(scope="session")
def workload_samples(tmp_path_factory):
    """What the per-sample paths on raw mpmath tuples see in ``cli.run`` then
    ``cli.check`` of each benchmark workload (``perfbench/workloads.py``,
    seed 0): per path, every call in order as (precision, arguments,
    result). The paths are ``DensityExpr.__call__`` (arguments: the
    expression and t), ``measure._accepted_panels`` (its arguments, and the
    list of what it yields), ``_CompiledComponent.weigh`` (the component
    and the weighed panel), ``checkers.angle``, ``algebra.support_distance``
    and ``ComplexMeasure.floor_observed`` (the measure)."""
    seen = {name: [] for name in ("density", "panels", "weigh", "angle",
                                  "support_distance", "floor_observed")}

    def recorded(name, fn):
        def call(*args):
            result = fn(*args)
            if name == "panels":
                result = list(result)
            seen[name].append((mp.mp.prec, args, result))
            return iter(result) if name == "panels" else result

        return call

    observed = functools.cached_property(recorded("floor_observed",
                                                  ms.ComplexMeasure.floor_observed.func))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ms.DensityExpr, "__call__", recorded("density", ms.DensityExpr.__call__))
        patch.setattr(ms, "_accepted_panels", recorded("panels", ms._accepted_panels))
        patch.setattr(ms._CompiledComponent, "weigh",
                      recorded("weigh", ms._CompiledComponent.weigh))
        patch.setattr(checkers, "angle", recorded("angle", checkers.angle))
        distance = recorded("support_distance", algebra.support_distance)
        for module in (algebra, checkers, pade, sch):
            patch.setattr(module, "support_distance", distance)
        patch.setattr(ms.ComplexMeasure, "floor_observed", observed)
        observed.__set_name__(ms.ComplexMeasure, "floor_observed")
        for name, workload in _benchmark_workloads().items():
            config = cli.ProblemConfig(workload.config(0))
            out = tmp_path_factory.mktemp(name)
            cli.run(config, out_dir=str(out))
            cli.check(config, out_dir=str(out))
    return seen

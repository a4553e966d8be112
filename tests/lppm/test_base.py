"""Tests for repro.lppm.base and the Identity mechanism / default suite."""

import numpy as np
import pytest

from repro.core.trace import Trace
from repro.lppm import default_lppm_suite
from repro.lppm.base import LPPM, coerce_rng
from repro.lppm.identity import Identity


def trace():
    return Trace("u", [0.0, 60.0], [45.0, 45.1], [4.0, 4.1])


class TestIdentity:
    def test_passthrough(self):
        t = trace()
        assert Identity().apply(t) is t

    def test_name(self):
        assert Identity().name == "no-LPPM"

    def test_callable(self):
        t = trace()
        assert Identity()(t) is t


class TestBase:
    def test_abstract(self):
        with pytest.raises(TypeError):
            LPPM()

    def test_coerce_rng(self):
        gen = np.random.default_rng(0)
        assert coerce_rng(gen) is gen
        assert isinstance(coerce_rng(5), np.random.Generator)
        assert isinstance(coerce_rng(None), np.random.Generator)

    def test_repr(self):
        assert "no-LPPM" in repr(Identity())


class TestDefaultSuite:
    def test_unfitted_suite(self):
        suite = default_lppm_suite()
        names = {l.name for l in suite}
        assert names == {"Geo-I", "TRL", "HMC"}

    def test_paper_parameters(self):
        suite = {l.name: l for l in default_lppm_suite()}
        assert suite["Geo-I"].epsilon == 0.01
        assert suite["TRL"].radius_m == 1000.0
        assert suite["HMC"].grid.cell_size_m == 800.0

    def test_fitted_suite(self, micro_ctx):
        suite = default_lppm_suite(micro_ctx.train)
        hmc = next(l for l in suite if l.name == "HMC")
        assert hmc.is_fitted


class TestDeterministicContract:
    """An LPPM that declares ``deterministic`` never reads its generator:
    the composition search reuses its output across chains on that promise."""

    @staticmethod
    def _registered(micro_ctx):
        from repro.registry import available, build

        for name in available("lppm"):
            lppm = build("lppm", name)
            if hasattr(lppm, "fit"):
                lppm.fit(micro_ctx.train)
            yield name, lppm

    def test_declared_lppms_leave_the_generator_alone(self, micro_ctx):
        trace = micro_ctx.test.traces()[0]
        declared = set()
        for name, lppm in self._registered(micro_ctx):
            if not lppm.deterministic:
                continue
            declared.add(name)
            gen = np.random.default_rng(1)
            state = gen.bit_generator.state
            out = lppm.apply(trace, gen)
            assert gen.bit_generator.state == state, name
            again = lppm.apply(trace, np.random.default_rng(2))
            assert out.fingerprint == again.fingerprint, name
        assert {"hmc", "promesse", "identity", "cloaking"} <= declared

    def test_randomised_lppms_do_not_declare_it(self, micro_ctx):
        from repro.registry import build

        lppms = dict(self._registered(micro_ctx))
        assert not lppms["geoi"].deterministic
        assert not lppms["trl"].deterministic
        assert not build("lppm", {"name": "cloaking", "jitter": True}).deterministic
        assert not LPPM.deterministic

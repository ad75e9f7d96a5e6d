"""Unit tests for the timing-constant algebra (paper Section 3)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import BOTTOM, ProtocolParams, max_faults


class TestValidation:
    def test_minimal_legal(self):
        params = ProtocolParams(n=4, f=1)
        assert params.n == 4

    def test_resilience_bound_enforced(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=3, f=1)
        with pytest.raises(ValueError):
            ProtocolParams(n=6, f=2)

    def test_boundary_exactly_3f_plus_1(self):
        ProtocolParams(n=7, f=2)  # 7 > 6 ok
        with pytest.raises(ValueError):
            ProtocolParams(n=9, f=3)  # 9 > 9 false

    def test_f_zero_allowed(self):
        assert ProtocolParams(n=1, f=0).strong_quorum == 1

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=4, f=-1)

    def test_delta_positive(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=4, f=1, delta=0.0)

    def test_pi_nonnegative(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=4, f=1, pi=-0.1)

    def test_rho_range(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=4, f=1, rho=1.0)
        with pytest.raises(ValueError):
            ProtocolParams(n=4, f=1, rho=-0.1)


class TestDerivedConstants:
    """Every constant exactly as defined in the paper's Section 3."""

    def params(self) -> ProtocolParams:
        return ProtocolParams(n=7, f=2, delta=1.0, pi=0.0, rho=0.0)

    def test_d(self):
        assert self.params().d == 1.0
        assert ProtocolParams(n=4, f=1, delta=2.0, pi=0.5, rho=0.1).d == pytest.approx(
            2.75
        )

    def test_tau_skew_is_6d(self):
        assert self.params().tau_skew == 6.0

    def test_phi_is_8d(self):
        assert self.params().phi == 8.0

    def test_delta_agr(self):
        assert self.params().delta_agr == (2 * 2 + 1) * 8.0  # 40

    def test_delta_0(self):
        assert self.params().delta_0 == 13.0

    def test_delta_rmv(self):
        assert self.params().delta_rmv == 53.0

    def test_delta_v(self):
        assert self.params().delta_v == 15.0 + 2 * 53.0  # 121

    def test_delta_node(self):
        assert self.params().delta_node == 121.0 + 40.0

    def test_delta_reset(self):
        assert self.params().delta_reset == 20.0 + 4 * 53.0  # 232

    def test_delta_stb(self):
        assert self.params().delta_stb == 464.0

    def test_quorums(self):
        p = self.params()
        assert p.weak_quorum == 3  # n - 2f
        assert p.strong_quorum == 5  # n - f

    def test_weak_quorum_exceeds_f(self):
        """n - 2f >= f + 1 ensures a correct member in every weak quorum."""
        for n in range(4, 30):
            p = ProtocolParams(n=n, f=max_faults(n))
            assert p.weak_quorum >= p.f + 1

    def test_round_deadline(self):
        p = self.params()
        assert p.round_deadline(0) == p.phi
        assert p.round_deadline(p.f) == p.delta_agr

    def test_with_faults(self):
        p = self.params().with_faults(1)
        assert p.f == 1
        assert p.n == 7

    def test_describe_contains_everything(self):
        desc = self.params().describe()
        for key in ("d", "phi", "delta_agr", "delta_stb", "delta_v"):
            assert key in desc


CONFIGS = [
    # (n, f, delta, pi, rho, phi_scale)
    (4, 1, 1.0, 0.0, 0.0, 1.0),
    (7, 2, 1.0, 0.0, 1e-4, 1.0),
    (13, 4, 0.1, 0.01, 1e-3, 1.0),
    (10, 3, 2.5, 0.25, 0.05, 0.5),
    (25, 8, 0.3, 0.0, 0.0, 1.25),
]
CONSTANTS = (
    "weak_quorum",
    "strong_quorum",
    "d",
    "tau_skew",
    "phi",
    "delta_agr",
    "delta_0",
    "delta_rmv",
    "delta_v",
    "delta_node",
    "delta_reset",
    "delta_stb",
)


def _by_formula(n, f, delta, pi, rho, phi_scale) -> dict:
    """Every constant from its docstring formula, spelled out afresh."""
    d = (delta + pi) * (1.0 + rho)
    tau_skew = 6.0 * d
    phi = (tau_skew + 2.0 * d) * phi_scale
    delta_agr = (2 * f + 1) * phi
    delta_0 = 13.0 * d
    delta_rmv = delta_agr + delta_0
    delta_v = 15.0 * d + 2.0 * delta_rmv
    delta_reset = 20.0 * d + 4.0 * delta_rmv
    return {
        "weak_quorum": n - 2 * f,
        "strong_quorum": n - f,
        "d": d,
        "tau_skew": tau_skew,
        "phi": phi,
        "delta_agr": delta_agr,
        "delta_0": delta_0,
        "delta_rmv": delta_rmv,
        "delta_v": delta_v,
        "delta_node": delta_v + delta_agr,
        "delta_reset": delta_reset,
        "delta_stb": 2.0 * delta_reset,
    }


def _make(config) -> ProtocolParams:
    n, f, delta, pi, rho, phi_scale = config
    return ProtocolParams(n=n, f=f, delta=delta, pi=pi, rho=rho, phi_scale=phi_scale)


def _constants(params: ProtocolParams) -> dict:
    return {name: getattr(params, name) for name in CONSTANTS}


class TestComputedOnce:
    """The derived constants are cached per instance, bit for bit."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_each_constant_equals_its_formula(self, config):
        assert _constants(_make(config)) == _by_formula(*config)

    def test_constants_are_computed_once(self):
        params = _make(CONFIGS[1])
        for name in CONSTANTS[2:]:  # floats: a recompute is a new object
            assert getattr(params, name) is getattr(params, name), name

    @pytest.mark.parametrize("config", CONFIGS)
    def test_replace_recomputes(self, config):
        params = _make(config)
        _constants(params)  # fill the cache before copying
        changed = dataclasses.replace(params, delta=params.delta * 3, f=0)
        expected = _by_formula(config[0], 0, config[2] * 3, *config[3:])
        assert _constants(changed) == expected
        assert _constants(params) == _by_formula(*config)

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip_keeps_equality_and_hash(self, config, read_first):
        params = _make(config)
        if read_first:
            _constants(params)
        clone = pickle.loads(pickle.dumps(params))
        assert clone == params
        assert hash(clone) == hash(params)
        assert _constants(clone) == _by_formula(*config)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_equality_ignores_which_constants_were_read(self, config):
        read, fresh = _make(config), _make(config)
        read.delta_stb, read.weak_quorum  # noqa: B018 -- fill part of a cache
        assert read == fresh and fresh == read
        assert hash(read) == hash(fresh)
        assert {read: 1}[fresh] == 1
        assert _constants(fresh) == _constants(read)


class TestOrderingInvariants:
    """Inequalities the proofs rely on, for every legal configuration."""

    @given(
        n=st.integers(min_value=4, max_value=40),
        delta=st.floats(min_value=0.01, max_value=100.0),
        rho=st.floats(min_value=0.0, max_value=0.01),
    )
    @settings(max_examples=80, deadline=None)
    def test_constant_ordering(self, n, delta, rho):
        params = ProtocolParams(n=n, f=max_faults(n), delta=delta, rho=rho)
        d = params.d
        # Claim 1's arithmetic: last(G, m) horizon fits inside Delta_reset.
        assert 19 * d + 4 * params.delta_rmv <= params.delta_reset
        # Delta_v leaves room past the last(G, m) expiry (2 Delta_rmv + 9d).
        assert params.delta_v > 2 * params.delta_rmv + 9 * d
        # Delta_0 exceeds the K-block re-send guard window.
        assert params.delta_0 > 6 * d
        # Phases are long enough for a full exchange round (>= 2d).
        assert params.phi >= 2 * d
        # Stabilization dominates every other constant.
        for value in (params.delta_agr, params.delta_rmv, params.delta_v):
            assert params.delta_stb > value


class TestBottom:
    def test_singleton(self):
        from repro.core.params import _Bottom

        assert _Bottom() is BOTTOM

    def test_falsy(self):
        assert not BOTTOM

    def test_repr(self):
        assert repr(BOTTOM) == "BOTTOM"

    def test_distinct_from_none(self):
        assert BOTTOM is not None


class TestMaxFaults:
    def test_values(self):
        assert max_faults(4) == 1
        assert max_faults(6) == 1
        assert max_faults(7) == 2
        assert max_faults(10) == 3
        assert max_faults(13) == 4

    def test_too_small(self):
        with pytest.raises(ValueError):
            max_faults(3)

    @given(n=st.integers(min_value=4, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_always_satisfies_bound(self, n):
        f = max_faults(n)
        assert n > 3 * f
        assert n <= 3 * (f + 1)

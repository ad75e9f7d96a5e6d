"""Unit tests for the Initiator-Accept primitive (Figure 2), block by block."""

from __future__ import annotations

import pytest

from repro.core.initiator_accept import InitiatorAccept
from repro.core.messages import ApproveMsg, ReadyMsg, SupportMsg
from repro.core.params import ProtocolParams

from tests.helpers import FakeHost

G = 9  # the General's id in these tests (host node is 0)


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(n=7, f=2, delta=1.0, rho=0.0)


@pytest.fixture
def setup(params):
    host = FakeHost(params)
    accepts: list[tuple[object, float]] = []
    ia = InitiatorAccept(host, G, lambda value, tau: accepts.append((value, tau)))
    return host, ia, accepts


def feed_support(ia, senders, value="m"):
    for sender in senders:
        ia.on_message(SupportMsg(G, value), sender)


def feed_approve(ia, senders, value="m"):
    for sender in senders:
        ia.on_message(ApproveMsg(G, value), sender)


def feed_ready(ia, senders, value="m"):
    for sender in senders:
        ia.on_message(ReadyMsg(G, value), sender)


class TestBlockK:
    def test_fresh_invoke_sends_support(self, setup):
        host, ia, _ = setup
        assert ia.invoke("m") is True
        supports = host.sent_of(SupportMsg)
        assert supports == [SupportMsg(G, "m")]

    def test_invoke_records_anchor_d_before_now(self, setup, params):
        host, ia, _ = setup
        host.advance(10.0)
        ia.invoke("m")
        assert ia.i_values["m"].recording == pytest.approx(
            host.local_now() - params.d
        )

    def test_invoke_blocked_by_other_live_value(self, setup):
        _host, ia, _ = setup
        ia.invoke("m")
        assert ia.invoke("m2") is False

    def test_invoke_blocked_by_last_g(self, setup):
        host, ia, _ = setup
        ia.last_g = host.local_now()
        assert ia.invoke("m") is False

    def test_invoke_blocked_by_recent_own_support(self, setup, params):
        host, ia, _ = setup
        ia.invoke("m")
        # i_values for m is live and last_gm was just set; even after i_values
        # would pass, the recent support send blocks within d.
        host.advance(0.5 * params.d)
        assert ia.invoke("m") is False

    def test_invoke_blocked_by_last_gm_d_ago(self, setup, params):
        host, ia, _ = setup
        # Plant last(G, m) = set 2d ago (so it was set at tau - d too).
        host.advance(5.0)
        ia._last_gm("m").assign(host.local_now() - 2 * params.d, host.local_now() - 2 * params.d)
        assert ia.invoke("m") is False

    def test_invoke_allowed_when_last_gm_set_after_tau_minus_d(self, setup, params):
        host, ia, _ = setup
        host.advance(5.0)
        # Set only half a d ago: at tau - d it was still BOTTOM.
        recent = host.local_now() - 0.5 * params.d
        ia._last_gm("m").assign(recent, recent)
        assert ia.invoke("m") is True

    def test_invoke_during_ignore_window_rejected(self, setup, params):
        host, ia, _ = setup
        ia.ignore_until["m"] = host.local_now() + 3 * params.d
        assert ia.invoke("m") is False


class TestBlockL:
    def test_weak_quorum_sets_i_values(self, setup, params):
        host, ia, _ = setup
        host.advance(20.0)
        feed_support(ia, [1, 2, 3])  # n - 2f = 3
        entry = ia.i_values.get("m")
        assert entry is not None
        # All arrived at the same instant: alpha = 0, recording = now - 2d.
        assert entry.recording == pytest.approx(host.local_now() - 2 * params.d)

    def test_below_weak_quorum_does_nothing(self, setup):
        _host, ia, _ = setup
        feed_support(ia, [1, 2])
        assert "m" not in ia.i_values

    def test_stale_supports_outside_4d_ignored(self, setup, params):
        host, ia, _ = setup
        feed_support(ia, [1, 2])
        host.advance(5 * params.d)  # first two now stale
        feed_support(ia, [3])
        assert "m" not in ia.i_values

    def test_recording_time_uses_kth_latest(self, setup, params):
        host, ia, _ = setup
        host.advance(20.0)
        feed_support(ia, [1])
        host.advance(1.0)
        feed_support(ia, [2])
        host.advance(1.0)
        feed_support(ia, [3])
        # kth (3rd) latest distinct arrival is sender 1's, 2d ago.
        expected = (host.local_now() - 2.0) - 2 * params.d
        assert ia.i_values["m"].recording == pytest.approx(expected)

    def test_recording_never_decreases(self, setup, params):
        host, ia, _ = setup
        host.advance(20.0)
        feed_support(ia, [1, 2, 3, 4])
        first = ia.i_values["m"].recording
        host.advance(1.0)
        feed_support(ia, [5])  # refresh with a later quorum
        assert ia.i_values["m"].recording >= first

    def test_strong_quorum_within_2d_sends_approve(self, setup, params):
        host, ia, _ = setup
        feed_support(ia, [1, 2, 3, 4, 5])  # n - f = 5 at the same instant
        assert host.sent_of(ApproveMsg) == [ApproveMsg(G, "m")]

    def test_spread_out_strong_quorum_does_not_approve(self, setup, params):
        host, ia, _ = setup
        for sender in (1, 2, 3, 4, 5):
            feed_support(ia, [sender])
            host.advance(params.d)  # total spread 5d > 2d window
        assert host.sent_of(ApproveMsg) == []


class TestBlockM:
    def test_weak_approve_quorum_arms_ready(self, setup, params):
        host, ia, _ = setup
        feed_approve(ia, [1, 2, 3])
        assert ia.ready["m"].is_set(host.local_now(), params.delta_rmv)

    def test_strong_approve_quorum_sends_ready(self, setup):
        host, ia, _ = setup
        feed_approve(ia, [1, 2, 3, 4, 5])
        assert ReadyMsg(G, "m") in host.sent_of(ReadyMsg)

    def test_approve_window_is_5d_for_weak(self, setup, params):
        host, ia, _ = setup
        feed_approve(ia, [1, 2])
        host.advance(6 * params.d)
        feed_approve(ia, [3])
        assert not ia.ready["m"].is_set(host.local_now(), params.delta_rmv)

    def test_strong_window_is_3d(self, setup, params):
        host, ia, _ = setup
        feed_approve(ia, [1, 2])
        host.advance(4 * params.d)
        feed_approve(ia, [3, 4, 5])
        # Only 3 approves inside [now-3d, now] -> below n-f; and the ready
        # flag may be armed (weak quorum in 5d) but no ready message sent.
        assert host.sent_of(ReadyMsg) == []


class TestBlockN:
    def test_no_ready_flag_no_acceptance(self, setup):
        _host, ia, accepts = setup
        feed_ready(ia, [1, 2, 3, 4, 5])
        assert accepts == []

    def test_amplification_on_weak_quorum(self, setup):
        host, ia, _ = setup
        feed_approve(ia, [1, 2, 3])  # arm ready flag (no ready msg sent)
        assert host.sent_of(ReadyMsg) == []
        feed_ready(ia, [1, 2, 3])  # weak quorum of ready messages
        assert host.sent_of(ReadyMsg) == [ReadyMsg(G, "m")]

    def test_full_wave_accepts_with_recorded_anchor(self, setup, params):
        host, ia, accepts = setup
        host.advance(10.0)
        feed_support(ia, [1, 2, 3])  # sets i_values
        anchor = ia.i_values["m"].recording
        feed_approve(ia, [1, 2, 3])
        feed_ready(ia, [1, 2, 3, 4, 5])
        assert accepts == [("m", pytest.approx(anchor))]

    def test_accept_clears_i_values_and_ignores(self, setup, params):
        host, ia, accepts = setup
        host.advance(10.0)
        feed_support(ia, [1, 2, 3])
        feed_approve(ia, [1, 2, 3])
        feed_ready(ia, [1, 2, 3, 4, 5])
        assert ia.i_values == {}
        assert ia.ignore_until["m"] > host.local_now()
        # Messages during the ignore window are dropped entirely.
        feed_ready(ia, [1, 2, 3, 4, 5])
        assert len(accepts) == 1

    def test_accept_sets_last_g_and_last_gm(self, setup):
        host, ia, _ = setup
        host.advance(10.0)
        feed_support(ia, [1, 2, 3])
        feed_approve(ia, [1, 2, 3])
        feed_ready(ia, [1, 2, 3, 4, 5])
        assert ia.last_g == pytest.approx(host.local_now())
        assert ia.last_gm["m"].current == pytest.approx(host.local_now())

    def test_forged_wave_without_anchor_rejected(self, setup):
        """Hardening: a ready quorum with no live i_values must not accept."""
        host, ia, accepts = setup
        feed_approve(ia, [1, 2, 3])  # arms ready but i_values only via L1...
        ia.i_values.clear()  # simulate decayed/corrupted anchor
        feed_ready(ia, [1, 2, 3, 4, 5])
        assert accepts == []
        assert "ia_n4_no_anchor" in host.traced_kinds()


class TestCleanup:
    def test_last_g_expires(self, setup, params):
        host, ia, _ = setup
        ia.last_g = host.local_now()
        host.advance(params.delta_0 - 6 * params.d + 1.0)
        ia.cleanup()
        assert ia.last_g is None

    def test_future_last_g_removed(self, setup, params):
        host, ia, _ = setup
        ia.last_g = host.local_now() + 100.0
        ia.cleanup()
        assert ia.last_g is None

    def test_last_gm_expires_on_long_horizon(self, setup, params):
        host, ia, _ = setup
        now = host.local_now()
        ia._last_gm("m").assign(now, now)
        host.advance(2 * params.delta_rmv + 9 * params.d + 1.0)
        ia.cleanup()
        assert ia.last_gm["m"].current is None

    def test_last_gm_survives_short_horizon(self, setup, params):
        host, ia, _ = setup
        now = host.local_now()
        ia._last_gm("m").assign(now, now)
        host.advance(params.delta_rmv)  # well inside 2*delta_rmv + 9d
        ia.cleanup()
        assert ia.last_gm["m"].current is not None

    def test_backward_clock_jump_leaves_no_future_last_gm_entry(self, setup, params):
        # A corrupted clock jumps 50 units back: the entry stamped before the
        # jump now lies in the future, ahead of the one written after it.
        host, ia, _ = setup
        host.advance(100.0)
        ia._touch_last_gm("m", host.local_now())
        ia._touch_last_gm("w", host.local_now())
        host.clock.corrupt_offset(-50.0)
        host.advance(2.0)
        written = host.local_now()
        ia._touch_last_gm("m", written)
        host.advance(2 * params.d)
        ia.cleanup()
        # Only the entry written after the jump is left, so last(G, m) read
        # d ago is that value, and Line K1 refuses a fresh invocation.
        assert ia.last_gm["m"].value_at(host.local_now() - params.d) == written
        assert ia.invoke("m") is False
        # A value untouched since the jump has only a future past: it goes.
        assert "w" not in ia.last_gm

    def test_i_values_expire(self, setup, params):
        host, ia, _ = setup
        ia.invoke("m")
        host.advance(params.delta_rmv + 1.0)
        ia.cleanup()
        assert "m" not in ia.i_values

    def test_ready_decays(self, setup, params):
        host, ia, _ = setup
        feed_approve(ia, [1, 2, 3])
        assert ia.ready["m"].is_set(host.local_now(), params.delta_rmv)
        host.advance(params.delta_rmv + 1.0)
        ia.cleanup()
        # A decayed flag is dropped: absent reads as unset.
        assert "m" not in ia.ready
        assert not ia._ready_flag("m").is_set(host.local_now(), params.delta_rmv)

    def test_far_future_ignore_deadline_removed(self, setup, params):
        """Only ``now + 3d`` is ever written: a later deadline is garbage."""
        host, ia, _ = setup
        ia.ignore_until["v"] = host.local_now() + 1e6
        ia.ignore_until["m"] = host.local_now() + 3 * params.d
        ia.cleanup()
        assert "v" not in ia.ignore_until
        assert "m" in ia.ignore_until  # a genuine deadline stays
        feed_support(ia, [1])
        ia.on_message(SupportMsg(G, "v"), 1)
        assert ia.log.count_distinct(("support", G, "v")) == 1
        assert ia.log.count_distinct(("support", G, "m")) == 0

    def test_log_pruned_by_age(self, setup, params):
        host, ia, _ = setup
        feed_support(ia, [1, 2])
        host.advance(params.delta_rmv + 1.0)
        ia.cleanup()
        assert ia.log.total_records() == 0

    def test_corrupted_state_drains_after_horizons(self, setup, params):
        """From arbitrary garbage, repeated cleanup fully drains the state."""
        from repro.sim.rand import RandomSource

        host, ia, accepts = setup
        host.advance(100.0)
        ia.corrupt(RandomSource(11), ["a", "b", "c"])
        horizon = 2 * params.delta_rmv + 10 * params.d
        steps = int(horizon / params.d) + 2
        for _ in range(steps):
            host.advance(params.d)
            ia.cleanup()
        assert ia.i_values == {}
        assert ia.last_g is None
        assert ia.log.total_records() == 0
        assert all(
            not flag.is_set(host.local_now(), params.delta_rmv)
            for flag in ia.ready.values()
        )
        assert all(var.current is None for var in ia.last_gm.values())


class TestReset:
    def test_reset_clears_log_but_keeps_pacing(self, setup):
        host, ia, _ = setup
        ia.invoke("m")
        feed_support(ia, [1, 2, 3])
        last_gm_before = ia.last_gm["m"].current
        ia.reset()
        assert ia.log.total_records() == 0
        assert ia.i_values == {}
        assert ia.last_gm["m"].current == last_gm_before  # pacing survives

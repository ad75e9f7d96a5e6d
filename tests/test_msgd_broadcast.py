"""Unit tests for the msgd-broadcast primitive (Figure 3), block by block."""

from __future__ import annotations

import pytest

from repro.core.messages import (
    MBEchoMsg,
    MBEchoPrimeMsg,
    MBInitMsg,
    MBInitPrimeMsg,
)
from repro.core.msgd_broadcast import MsgdBroadcast
from repro.core.params import ProtocolParams

from tests.helpers import FakeHost

G = 9
P = 3  # broadcast origin used in most tests


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(n=7, f=2, delta=1.0, rho=0.0)


@pytest.fixture
def setup(params):
    host = FakeHost(params)
    accepts: list[tuple[int, object, int, float]] = []
    broadcasters: list[int] = []
    mb = MsgdBroadcast(
        host,
        G,
        lambda origin, value, k, now: accepts.append((origin, value, k, now)),
        broadcasters.append,
    )
    return host, mb, accepts, broadcasters


def echo(mb, senders, k=1, value="m", origin=P):
    for sender in senders:
        mb.on_message(MBEchoMsg(G, origin, value, k), sender)


def init_prime(mb, senders, k=1, value="m", origin=P):
    for sender in senders:
        mb.on_message(MBInitPrimeMsg(G, origin, value, k), sender)


def echo_prime(mb, senders, k=1, value="m", origin=P):
    for sender in senders:
        mb.on_message(MBEchoPrimeMsg(G, origin, value, k), sender)


class TestAnchor:
    def test_messages_logged_before_anchor_replayed_on_set(self, setup):
        host, mb, accepts, _ = setup
        echo(mb, [1, 2, 3, 4, 5])  # strong quorum, but no anchor yet
        assert accepts == []
        mb.set_anchor(host.local_now())
        assert len(accepts) == 1
        assert accepts[0][:3] == (P, "m", 1)

    def test_invoke_sends_init(self, setup):
        host, mb, _, _ = setup
        mb.invoke("m", 1)
        inits = host.sent_of(MBInitMsg)
        assert inits == [MBInitMsg(G, host.node_id, "m", 1)]

    def test_clear_anchor_stops_evaluation(self, setup):
        host, mb, accepts, _ = setup
        mb.set_anchor(host.local_now())
        mb.clear_anchor()
        echo(mb, [1, 2, 3, 4, 5])
        assert accepts == []


class TestBlockW:
    def test_init_from_origin_triggers_echo(self, setup):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        mb.on_message(MBInitMsg(G, P, "m", 1), P)
        assert host.sent_of(MBEchoMsg) == [MBEchoMsg(G, P, "m", 1)]

    def test_init_claiming_other_origin_discarded(self, setup):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        mb.on_message(MBInitMsg(G, P, "m", 1), sender=5)  # forged origin
        assert host.sent_of(MBEchoMsg) == []

    def test_echo_deadline_2k_phi(self, setup, params):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        host.advance(2 * params.phi + 1.0)  # past 2k*Phi for k=1
        mb.on_message(MBInitMsg(G, P, "m", 1), P)
        assert host.sent_of(MBEchoMsg) == []

    def test_higher_round_has_later_deadline(self, setup, params):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        host.advance(2 * params.phi + 1.0)
        mb.on_message(MBInitMsg(G, P, "m", 2), P)  # k=2: deadline 4*Phi
        assert host.sent_of(MBEchoMsg) == [MBEchoMsg(G, P, "m", 2)]


class TestBlockX:
    def test_weak_echo_quorum_sends_init_prime(self, setup):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        echo(mb, [1, 2, 3])
        assert host.sent_of(MBInitPrimeMsg) == [MBInitPrimeMsg(G, P, "m", 1)]

    def test_strong_echo_quorum_accepts(self, setup):
        host, mb, accepts, _ = setup
        mb.set_anchor(host.local_now())
        echo(mb, [1, 2, 3, 4, 5])
        assert [a[:3] for a in accepts] == [(P, "m", 1)]

    def test_accept_once_per_triplet(self, setup):
        host, mb, accepts, _ = setup
        mb.set_anchor(host.local_now())
        echo(mb, [1, 2, 3, 4, 5])
        echo(mb, [6])
        assert len(accepts) == 1

    def test_x_deadline_2k_plus_1_phi(self, setup, params):
        host, mb, accepts, _ = setup
        mb.set_anchor(host.local_now())
        host.advance(3 * params.phi + 1.0)
        echo(mb, [1, 2, 3, 4, 5])
        assert accepts == []  # past (2k+1)Phi for k=1

    def test_sends_are_once_only(self, setup):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        echo(mb, [1, 2, 3])
        echo(mb, [4])
        assert len(host.sent_of(MBInitPrimeMsg)) == 1


class TestBlockY:
    def test_weak_init_prime_detects_broadcaster(self, setup):
        host, mb, _, broadcasters = setup
        mb.set_anchor(host.local_now())
        init_prime(mb, [1, 2, 3])
        assert broadcasters == [P]
        assert P in mb.broadcasters

    def test_broadcaster_detected_once(self, setup):
        host, mb, _, broadcasters = setup
        mb.set_anchor(host.local_now())
        init_prime(mb, [1, 2, 3, 4])
        assert broadcasters == [P]

    def test_strong_init_prime_sends_echo_prime(self, setup):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        init_prime(mb, [1, 2, 3, 4, 5])
        assert host.sent_of(MBEchoPrimeMsg) == [MBEchoPrimeMsg(G, P, "m", 1)]

    def test_y_deadline_2k_plus_2_phi(self, setup, params):
        host, mb, _, broadcasters = setup
        mb.set_anchor(host.local_now())
        host.advance(4 * params.phi + 1.0)
        init_prime(mb, [1, 2, 3])
        assert broadcasters == []


class TestBlockZ:
    def test_weak_echo_prime_amplifies_any_time(self, setup, params):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        host.advance(10 * params.phi)  # far past all deadlines
        echo_prime(mb, [1, 2, 3])
        assert host.sent_of(MBEchoPrimeMsg) == [MBEchoPrimeMsg(G, P, "m", 1)]

    def test_strong_echo_prime_accepts_any_time(self, setup, params):
        host, mb, accepts, _ = setup
        mb.set_anchor(host.local_now())
        host.advance(10 * params.phi)
        echo_prime(mb, [1, 2, 3, 4, 5])
        assert [a[:3] for a in accepts] == [(P, "m", 1)]

    def test_distinct_triplets_tracked_separately(self, setup):
        host, mb, accepts, _ = setup
        mb.set_anchor(host.local_now())
        echo(mb, [1, 2, 3, 4, 5], k=1)
        echo(mb, [1, 2, 3, 4, 5], k=2)
        echo(mb, [1, 2, 3, 4, 5], k=1, value="m2")
        assert len(accepts) == 3


class TestCleanupReset:
    def test_cleanup_prunes_old_messages(self, setup, params):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        echo(mb, [1, 2])
        horizon = (2 * params.f + 3) * params.phi
        host.advance(horizon + 1.0)
        mb.cleanup()
        assert mb.log.total_records() == 0

    def test_cleanup_expires_broadcasters(self, setup, params):
        host, mb, _, _ = setup
        mb.set_anchor(host.local_now())
        init_prime(mb, [1, 2, 3])
        host.advance((2 * params.f + 3) * params.phi + 1.0)
        mb.cleanup()
        assert mb.broadcasters == {}

    def test_cleanup_drops_future_broadcasters(self, setup, params):
        host, mb, _, _ = setup
        now = host.local_now()
        mb.broadcasters = {1: now, 2: now + 5 * params.d}
        mb.cleanup()
        assert mb.broadcasters == {1: now}

    def test_reset_clears_everything(self, setup):
        host, mb, accepts, _ = setup
        mb.set_anchor(host.local_now())
        echo(mb, [1, 2, 3, 4, 5])
        mb.reset()
        assert mb.anchor is None
        assert mb.accepted == {}
        assert mb.broadcasters == {}
        assert mb.log.total_records() == 0
        # After reset a new wave can be accepted again.
        mb.set_anchor(host.local_now())
        echo(mb, [1, 2, 3, 4, 5])
        assert len(accepts) == 2

    def test_corrupted_state_drains(self, setup, params):
        from repro.sim.rand import RandomSource

        host, mb, _, _ = setup
        host.advance(50.0)
        mb.corrupt(RandomSource(5), ["a", "b"])
        horizon = (2 * params.f + 3) * params.phi
        steps = int(horizon / params.d) + 2
        for _ in range(steps):
            host.advance(params.d)
            mb.cleanup()
        assert mb.log.total_records() == 0
        assert mb.broadcasters == {}
        assert mb.accepted == {}


class TestDeadlineTimerHygiene:
    """Deadlines are upper bounds checked on arrival: no host timers.

    ``live_timer_count()`` is the introspection hook; an agreement's
    return-to-zero checks live in the agreement-level tests.
    """

    def test_context_arms_no_host_timer(self, setup, params):
        host, mb, accepts, _ = setup
        mb.set_anchor(host.local_now())
        echo(mb, [1, 2], k=2)  # evaluation of a second triplet
        assert host.live_timer_count() == 0
        # One complete accept wave.
        mb.on_message(MBInitMsg(G, P, "m", 1), P)
        echo(mb, [1, 2, 3, 4, 5])
        init_prime(mb, [1, 2, 3, 4, 5])
        echo_prime(mb, [1, 2, 3, 4, 5])
        assert len(accepts) == 1
        assert host.live_timer_count() == 0
        mb.reset()  # what the agreement layer does 3d after returning
        assert host.live_timer_count() == 0
        # Re-anchor with a backlog to replay, then age it all out.
        echo(mb, [1, 2])
        mb.set_anchor(host.local_now())
        mb.set_anchor(host.local_now())
        assert mb._states
        assert host.live_timer_count() == 0
        host.advance((2 * params.f + 3) * params.phi + 1.0)
        mb.cleanup()
        assert mb._states == {}
        assert host.live_timer_count() == 0

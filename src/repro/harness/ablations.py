"""Ablations A1..A3: stress the design choices DESIGN.md calls out.

Registered with the experiment engine as ``"a1"``..``"a3"``, written the
way E1..E10 are (a picklable per-seed function and a row builder per sweep
point), so ``run_experiment("a1", workers=...)`` fans them out over the
seed pool and ``list-experiments`` shows them.

* **A1 -- phase length Phi.**  The paper sets ``Phi = tau_skew + 2d = 8d``;
  the round deadlines of msgd-broadcast and Blocks S/T/U are all multiples
  of it.  Shrinking Phi below the proofs' requirement must (and does) break
  Agreement in relay-dependent scenarios: nodes that decide via Block R
  leave the late, relay-dependent node stranded past its deadlines.
* **A2 -- cleanup cadence.**  The decay rules assume cleanup runs "in the
  background"; we tick it every d by default.  Slower ticks delay garbage
  draining -- the ablation measures how far the cadence can be stretched
  before stabilization within Delta_stb starts failing.
* **A3 -- re-send throttle.**  The paper re-sends Initiator-Accept messages
  unboundedly; we throttle identical re-sends (default one per d).  The
  ablation sweeps the gap and shows correctness is insensitive while
  message volume scales inversely.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.core.params import ProtocolParams
from repro.faults.transient import TransientFaultInjector
from repro.harness import properties
from repro.harness.experiments import DEFAULT_RHO
from repro.harness.registry import ScenarioGroup, experiment
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.net.delivery import FixedDelay


def _split_anchor_attack(params: ProtocolParams, release_d: float = 3.2):
    """A Byzantine cabal that splits the correct nodes across Block R's
    freshness boundary.

    The General initiates only at nodes 1-3 (their anchors come from Block
    K: invoke - d); nodes 4-5 learn the value only through the support
    quorum (Block L anchors ~d older).  The cabal stalls the ready wave and
    releases it at ``release_d``, timed so the invokers' anchors are still
    fresh enough for Block R while the others' are not: nodes 4-5 can then
    decide only through relayed msgd-broadcasts, whose deadlines are
    multiples of Phi.
    """
    from repro.core.messages import ApproveMsg, InitiatorMsg, ReadyMsg, SupportMsg
    from repro.faults.byzantine import ScriptedStrategy

    d = params.d
    seeded = (1, 2, 3)
    everyone = tuple(range(params.n))
    script = [(0.05 * d, seeded, InitiatorMsg(0, "m"))]
    for t in (0.2 * d, 0.9 * d):
        script.append((t, seeded, SupportMsg(0, "m")))
    for t in (2.0 * d, 2.4 * d):
        script.append((t, (1, 2), ApproveMsg(0, "m")))
    for t in (release_d * d, (release_d + 0.2) * d):
        script.append((t, everyone, ReadyMsg(0, "m")))
    return {
        0: ScriptedStrategy(tuple(script)),
        6: ScriptedStrategy(tuple(script[1:])),
    }


def _a1_seed(params: ProtocolParams, release_d: float, seed: int) -> bool:
    cluster = Cluster(
        ScenarioConfig(
            params=params,
            seed=seed,
            byzantine=_split_anchor_attack(params, release_d),
            policy=FixedDelay(0.1 * params.delta),
        )
    )
    cluster.run_for(3 * max(params.delta_agr, 20 * params.d))
    return properties.agreement(cluster, 0).holds


def _a1_rows(params: ProtocolParams, results: list, seed_list: Sequence[int]) -> list[dict]:
    agreement_ok = sum(results)
    return [
        {
            "phi_scale": params.phi_scale,
            "phi_d": params.phi / params.d,
            "runs": len(seed_list),
            "agreement_ok": agreement_ok,
            "violations": len(seed_list) - agreement_ok,
        }
    ]


@experiment(
    "a1",
    title="A1: Phi shrunk under the split-anchor attack",
    defaults={"phi_scales": (0.25, 0.5, 0.75, 1.0), "release_d": 3.2,
              "seeds": range(8)},
)
def _a1_groups(
    phi_scales: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    release_d: float = 3.2,
) -> list[ScenarioGroup]:
    """Shrink Phi under the split-anchor attack.

    Nodes 1-3 decide via Block R; nodes 4-5 must decide through relayed
    msgd-broadcasts -- whose deadlines are multiples of Phi, exactly the
    margin the ablation removes.  At the paper's Phi the relay always lands
    in time and everyone decides; with Phi shrunk, the relay-dependent
    nodes miss their deadlines and abort while the others decided: an
    Agreement violation.
    """
    return [
        ScenarioGroup(partial(_a1_seed, params, release_d), partial(_a1_rows, params))
        for params in (
            ProtocolParams(n=7, f=2, delta=1.0, rho=DEFAULT_RHO, phi_scale=scale)
            for scale in phi_scales
        )
    ]


def _a2_seed(params: ProtocolParams, interval: float, seed: int) -> bool:
    cluster = Cluster(
        ScenarioConfig(params=params, seed=seed, cleanup_interval_d=interval)
    )
    injector = TransientFaultInjector(
        params,
        cluster.rng.split("inj"),
        value_pool=["A", "B", "C"],
        generals=[0, 1],
    )
    cluster.run_for(5 * params.d)
    injector.havoc(cluster.correct_nodes(), cluster.net, 250)
    cluster.run_for(params.delta_stb)
    since = cluster.sim.now
    if not cluster.propose(general=0, value="r"):
        return False
    cluster.run_for(params.delta_agr + 10 * params.d)
    return properties.validity(cluster, 0, "r", since_real=since).holds


def _a2_rows(interval: float, results: list, seed_list: Sequence[int]) -> list[dict]:
    return [
        {
            "cleanup_interval_d": interval,
            "runs": len(seed_list),
            "recovered": sum(results),
        }
    ]


@experiment(
    "a2",
    title="A2: stabilization vs the cleanup cadence",
    defaults={"intervals_d": (0.5, 1.0, 4.0, 16.0), "seeds": range(5)},
)
def _a2_groups(
    intervals_d: Sequence[float] = (0.5, 1.0, 4.0, 16.0),
) -> list[ScenarioGroup]:
    """Stabilization success vs the background cleanup cadence."""
    params = ProtocolParams(n=7, f=2, delta=1.0, rho=DEFAULT_RHO)
    return [
        ScenarioGroup(
            seed_fn=partial(_a2_seed, params, interval),
            rows=partial(_a2_rows, interval),
        )
        for interval in intervals_d
    ]


def _a3_seed(params: ProtocolParams, gap: float, seed: int) -> tuple:
    cluster = Cluster(ScenarioConfig(params=params, seed=seed, resend_gap_d=gap))
    base = cluster.net.sent_count
    assert cluster.propose(general=0, value="v")
    cluster.run_for(params.delta_agr + 10 * params.d)
    sent = cluster.net.sent_count - base
    return properties.validity(cluster, 0, "v").holds, sent


def _a3_rows(gap: float, results: list, seed_list: Sequence[int]) -> list[dict]:
    return [
        {
            "resend_gap_d": gap,
            "runs": len(seed_list),
            "validity_ok": sum(ok for ok, _sent in results),
            "messages_mean": sum(sent for _ok, sent in results) / len(results),
        }
    ]


@experiment(
    "a3",
    title="A3: message volume vs the re-send throttle",
    defaults={"gaps_d": (0.5, 1.0, 2.0, 4.0), "seeds": range(5)},
)
def _a3_groups(gaps_d: Sequence[float] = (0.5, 1.0, 2.0, 4.0)) -> list[ScenarioGroup]:
    """Message volume and correctness vs the re-send throttle gap."""
    params = ProtocolParams(n=7, f=2, delta=1.0, rho=DEFAULT_RHO)
    return [
        ScenarioGroup(
            seed_fn=partial(_a3_seed, params, gap),
            rows=partial(_a3_rows, gap),
        )
        for gap in gaps_d
    ]

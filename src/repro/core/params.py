"""Timing-constant algebra (paper Section 3, notation table).

Everything is derived from four model inputs -- ``n``, ``f``, the network
delay bound ``delta``, the processing bound ``pi`` -- plus the drift bound
``rho``:

    d        = (delta + pi) * (1 + rho)        end-to-end bound on any timer
    tau_skew = 6 d                             max anchor skew (IA-3A)
    Phi      = tau_skew + 2d = 8 d             one protocol phase
    Delta_agr   = (2f + 1) Phi                 agreement duration bound
    Delta_0     = 13 d                         min gap, different values
    Delta_rmv   = Delta_agr + Delta_0          decay age for values/messages
    Delta_v     = 15 d + 2 Delta_rmv           min gap, same value
    Delta_node  = Delta_v + Delta_agr          non-faulty -> correct promotion
    Delta_reset = 20 d + 4 Delta_rmv           General back-off on failure
    Delta_stb   = 2 Delta_reset                stabilization time

These constants are *protocol configuration*: non-faulty nodes never
initialize them with arbitrary values (the paper states n, f, d are fixed
constants), so they survive transient faults.  That is also why each one is
computed once per :class:`ProtocolParams` instance, on first read, and
cached there: the protocol blocks and the per-``d`` cleanup sweep read them
millions of times per run.  Equality and hashing see only the model
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class _Bottom:
    """The paper's null value (a unique sentinel, distinct from None)."""

    _instance: "_Bottom | None" = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOTTOM"

    def __bool__(self) -> bool:
        return False


BOTTOM = _Bottom()


@dataclass(frozen=True)
class ProtocolParams:
    """Model inputs and every derived timing constant.

    Parameters
    ----------
    n:
        Number of nodes.
    f:
        Upper bound on Byzantine nodes at steady state; requires ``n > 3f``.
    delta:
        Bound on message transit delay (real time) while the network is
        correct.
    pi:
        Bound on per-message processing time.
    rho:
        Bound on clock drift rate (``0 <= rho < 1``).
    """

    n: int
    f: int
    delta: float = 1.0
    pi: float = 0.0
    rho: float = 0.0
    # Ablation-only knob: scales Phi below/above the paper's 8d.  The proofs
    # require phi_scale = 1.0; the ablation bench (bench_a1) shows agreement
    # violations appearing when the phase is shortened.
    phi_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.phi_scale <= 0:
            raise ValueError(f"phi_scale must be positive, got {self.phi_scale}")
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.f < 0:
            raise ValueError(f"f must be non-negative, got {self.f}")
        if self.n <= 3 * self.f:
            raise ValueError(
                f"resilience bound violated: need n > 3f, got n={self.n}, f={self.f}"
            )
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.pi < 0:
            raise ValueError(f"pi must be non-negative, got {self.pi}")
        if not (0 <= self.rho < 1):
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")

    # ------------------------------------------------------------------
    # Quorums
    # ------------------------------------------------------------------
    @cached_property
    def weak_quorum(self) -> int:
        """``n - 2f``: guarantees at least one correct member (>= f + 1)."""
        return self.n - 2 * self.f

    @cached_property
    def strong_quorum(self) -> int:
        """``n - f``: every correct node can eventually gather this many."""
        return self.n - self.f

    # ------------------------------------------------------------------
    # Derived timing constants
    # ------------------------------------------------------------------
    @cached_property
    def d(self) -> float:
        """End-to-end send+process bound, as measured on any correct timer."""
        return (self.delta + self.pi) * (1.0 + self.rho)

    @cached_property
    def tau_skew(self) -> float:
        """Maximum real-time skew between correct nodes' anchors (6d)."""
        return 6.0 * self.d

    @cached_property
    def phi(self) -> float:
        """Duration of one protocol phase: ``tau_skew + 2d = 8d``."""
        return (self.tau_skew + 2.0 * self.d) * self.phi_scale

    @cached_property
    def delta_agr(self) -> float:
        """Upper bound on running the agreement: ``(2f + 1) * Phi``."""
        return (2 * self.f + 1) * self.phi

    @cached_property
    def delta_0(self) -> float:
        """Minimal gap between initiations with different values: ``13d``."""
        return 13.0 * self.d

    @cached_property
    def delta_rmv(self) -> float:
        """Decay age for old values/messages: ``Delta_agr + Delta_0``."""
        return self.delta_agr + self.delta_0

    @cached_property
    def delta_v(self) -> float:
        """Minimal gap between initiations of the *same* value."""
        return 15.0 * self.d + 2.0 * self.delta_rmv

    @cached_property
    def delta_node(self) -> float:
        """Continuous non-faulty time before a node counts as correct."""
        return self.delta_v + self.delta_agr

    @cached_property
    def delta_reset(self) -> float:
        """General's back-off after noticing a failed initiation."""
        return 20.0 * self.d + 4.0 * self.delta_rmv

    @cached_property
    def delta_stb(self) -> float:
        """System stabilization time: ``2 * Delta_reset``."""
        return 2.0 * self.delta_reset

    # ------------------------------------------------------------------
    # Helpers for phase arithmetic in the protocol blocks
    # ------------------------------------------------------------------
    def round_deadline(self, r: int) -> float:
        """Local-time offset of the decision deadline of round ``r``.

        Blocks R/S/T of ss-Byz-Agree use ``tau_G + (2r + 1) * Phi``.
        """
        return (2 * r + 1) * self.phi

    def with_faults(self, f: int) -> "ProtocolParams":
        """Copy with a different fault bound (for sweeps)."""
        return ProtocolParams(
            n=self.n, f=f, delta=self.delta, pi=self.pi, rho=self.rho
        )

    def describe(self) -> dict[str, float]:
        """All derived constants as a flat dict (for experiment reports)."""
        return {
            "n": self.n,
            "f": self.f,
            "d": self.d,
            "phi": self.phi,
            "delta_agr": self.delta_agr,
            "delta_0": self.delta_0,
            "delta_rmv": self.delta_rmv,
            "delta_v": self.delta_v,
            "delta_node": self.delta_node,
            "delta_reset": self.delta_reset,
            "delta_stb": self.delta_stb,
        }


def max_faults(n: int) -> int:
    """Largest ``f`` satisfying ``n > 3f`` for a given ``n``."""
    if n < 4:
        raise ValueError(f"Byzantine agreement needs n >= 4, got {n}")
    return (n - 1) // 3


__all__ = ["BOTTOM", "ProtocolParams", "max_faults"]

"""Delay contracts, their strong/weak pairing and the observers over them.

A contract guarantees that the estimated end-to-end delay between two
switches stays at or below a required bound (the ped).  Contracts come in
pairs: the strong contract carries the nominal requirement, the weak one a
relaxed fallback used to keep traffic flowing when the strong bound cannot
be met.  One ContractPair record holds both bounds and which of them is
active, and observers are stateless checks of an estimated delay against
the active bound.  Run-time requirement changes (E2) change the strong
bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

from .core import SwitchId

# Weak requirement when a scenario states only the strong one.
DEFAULT_WEAK_FACTOR = 2


class ContractKind(Enum):
    STRONG = "strong"
    WEAK = "weak"


class FaultCause(Enum):
    ESTIMATION_CYCLE = "estimation_cycle"
    LINK_FAILURE = "link_failure"
    CONTRACT_CHANGE = "contract_change"


class ContractError(ValueError):
    """Invalid contract definition or modification."""


@dataclass(frozen=True)
class FaultReport:
    """A violated guarantee: the observed delay exceeded the active bound."""

    pair_id: str
    observed_ed: int
    ped: int
    detected_at: int
    cause: FaultCause

    def __post_init__(self) -> None:
        if self.observed_ed <= self.ped:
            raise ContractError("fault report without a violation")


@dataclass(frozen=True)
class PedChange:
    """Active-bound transition, kept as a timeline for packet scoring."""

    pair_id: str
    src: SwitchId
    dst: SwitchId
    at: int
    active_kind: ContractKind
    active_ped: int
    strong_ped: int
    weak_ped: int


@dataclass
class ContractPair:
    """Strong and weak delay bounds (ns); the active_kind one is in force."""

    id: str
    src: SwitchId
    dst: SwitchId
    strong_ped: int
    weak_ped: int
    active_kind: ContractKind = ContractKind.STRONG

    @property
    def active_ped(self) -> int:
        if self.active_kind is ContractKind.STRONG:
            return self.strong_ped
        return self.weak_ped


def create_contract_pair(pair_id: str, src: SwitchId, dst: SwitchId,
                         strong_ped: int, weak_ped: int | None = None,
                         ) -> ContractPair:
    """A pair with the strong contract active, a positive strong bound and
    a weak one at least as large (DEFAULT_WEAK_FACTOR times strong if
    omitted)."""
    if strong_ped <= 0:
        raise ContractError("strong ped must be positive")
    if weak_ped is None:
        weak_ped = strong_ped * DEFAULT_WEAK_FACTOR
    elif weak_ped < strong_ped:
        raise ContractError(
            f"weak ped {weak_ped} below strong ped {strong_ped}")
    return ContractPair(pair_id, src, dst, strong_ped, weak_ped)


def observe(pair: ContractPair, ed: int, now: int,
            cause: FaultCause) -> FaultReport | None:
    """Stateless guarantee check against the pair's active bound: None
    when ed <= ped, a fault otherwise."""
    ped = pair.active_ped
    if ed <= ped:
        return None
    return FaultReport(pair_id=pair.id, observed_ed=ed, ped=ped,
                       detected_at=now, cause=cause)


class ContractStore:
    """All contract pairs of a run, plus the active-bound timeline.

    Mutations happen only through modify and switch_active so the scoring
    timeline stays complete.
    """

    def __init__(self) -> None:
        self._pairs: dict[str, ContractPair] = {}
        self._by_endpoints: dict[tuple[SwitchId, SwitchId], ContractPair] = {}
        self.ped_changes: list[PedChange] = []

    def add(self, pair: ContractPair, now: int = 0) -> None:
        if pair.id in self._pairs:
            raise ContractError(f"duplicate contract pair {pair.id!r}")
        key = (pair.src, pair.dst)
        if key in self._by_endpoints:
            raise ContractError(f"duplicate contract for endpoints {key}")
        self._pairs[pair.id] = pair
        self._by_endpoints[key] = pair
        self._record(pair, now)

    def twin(self) -> ContractStore:
        """A copy holding a new ContractPair for every pair, with the same
        bounds and active kind, and its own list of the changes so far."""
        twin = ContractStore.__new__(ContractStore)
        twin._pairs = pairs = {
            pair_id: ContractPair(pair.id, pair.src, pair.dst,
                                  pair.strong_ped, pair.weak_ped,
                                  pair.active_kind)
            for pair_id, pair in self._pairs.items()}
        twin._by_endpoints = {key: pairs[pair.id]
                              for key, pair in self._by_endpoints.items()}
        twin.ped_changes = list(self.ped_changes)
        return twin

    def pair(self, pair_id: str) -> ContractPair:
        try:
            return self._pairs[pair_id]
        except KeyError:
            raise ContractError(f"unknown contract pair {pair_id!r}") from None

    def pair_for(self, src: SwitchId, dst: SwitchId) -> ContractPair | None:
        return self._by_endpoints.get((src, dst))

    def _record(self, pair: ContractPair, now: int) -> None:
        self.ped_changes.append(PedChange(
            pair_id=pair.id, src=pair.src, dst=pair.dst, at=now,
            active_kind=pair.active_kind, active_ped=pair.active_ped,
            strong_ped=pair.strong_ped, weak_ped=pair.weak_ped))

    def modify(self, pair_id: str, new_ped: int, now: int) -> bool:
        """Replace a pair's strong requirement; False when unchanged.

        Raising the strong requirement above the weak one pulls the weak
        requirement up by the same factor so the pair invariant holds.
        """
        if new_ped <= 0:
            raise ContractError("ped must be positive")
        pair = self.pair(pair_id)
        old = pair.strong_ped
        if new_ped == old:
            return False
        if new_ped > pair.weak_ped:
            # Proportional adjustment keeps weak/strong ratio intact.
            pair.weak_ped = (new_ped * pair.weak_ped + old // 2) // old
        pair.strong_ped = new_ped
        self._record(pair, now)
        return True

    def switch_active(self, pair_id: str, to: ContractKind, now: int) -> bool:
        """Make to the pair's active kind; no-op when it already is."""
        pair = self.pair(pair_id)
        if pair.active_kind is to:
            return False
        pair.active_kind = to
        self._record(pair, now)
        return True


class BoundTimeline:
    """Which PedChange is in force for a contract's endpoints at an instant.

    Built once from a run's ped-change records (typed or parsed back from
    a serialized log); each lookup is a bisection over that pair's change
    times.  The last change at or before the instant wins.
    """

    def __init__(self, ped_changes) -> None:
        self._times: dict[tuple[SwitchId, SwitchId], list[int]] = {}
        self._changes: dict[tuple[SwitchId, SwitchId], list] = {}
        for change in sorted(ped_changes, key=lambda c: c.at):
            key = (change.src, change.dst)
            self._times.setdefault(key, []).append(change.at)
            self._changes.setdefault(key, []).append(change)

    def at(self, src: SwitchId, dst: SwitchId, when: int):
        """The change in force at `when`; None before the pair's first."""
        return self.span(src, dst, when)[0]

    def span(self, src: SwitchId, dst: SwitchId, when: int) -> tuple:
        """(change in force at `when`, lo, hi): the same change is in force
        at every instant of [lo, hi), which may be unbounded (±inf)."""
        times = self._times.get((src, dst))
        if times is None:
            return None, -math.inf, math.inf
        index = bisect_right(times, when)
        hi = times[index] if index < len(times) else math.inf
        if index == 0:
            return None, -math.inf, hi
        return self._changes[(src, dst)][index - 1], times[index - 1], hi

import pytest
from hypothesis import given, strategies as st

from sdnsim.contracts import (
    BoundTimeline,
    ContractError,
    ContractKind,
    ContractStore,
    FaultCause,
    create_contract_pair,
    observe,
)
from sdnsim.core import MILLISECOND

MS = MILLISECOND


def store_with(pair):
    store = ContractStore()
    store.add(pair, now=0)
    return store


class TestCreateContractPair:
    def test_strong_active_by_default(self):
        pair = create_contract_pair("C1", "S1", "S8", 5 * MS, 10 * MS)
        assert pair.active_kind is ContractKind.STRONG
        assert pair.strong.ped == 5 * MS
        assert pair.weak.ped == 10 * MS

    def test_default_weak_is_twice_strong(self):
        pair = create_contract_pair("C1", "S1", "S8", 5 * MS)
        assert pair.weak.ped == 10 * MS

    def test_degenerate_equal_peds_allowed(self):
        pair = create_contract_pair("C1", "S1", "S8", 5 * MS, 5 * MS)
        assert pair.weak.ped == pair.strong.ped

    def test_weak_below_strong_rejected(self):
        with pytest.raises(ContractError):
            create_contract_pair("C1", "S1", "S8", 5 * MS, 3 * MS)

    def test_nonpositive_ped_rejected(self):
        with pytest.raises(ContractError):
            create_contract_pair("C1", "S1", "S8", 0)


class TestObserve:
    def test_within_bound_is_ok(self):
        pair = create_contract_pair("C1", "S1", "S8", 5 * MS)
        assert observe(pair.strong, 3 * MS, 100, FaultCause.ESTIMATION_CYCLE) is None

    def test_equal_bound_is_ok(self):
        pair = create_contract_pair("C1", "S1", "S8", 5 * MS)
        assert observe(pair.strong, 5 * MS, 100, FaultCause.ESTIMATION_CYCLE) is None

    def test_violation_reports_fault(self):
        pair = create_contract_pair("C1", "S1", "S8", 5 * MS)
        fault = observe(pair.strong, 6 * MS, 100, FaultCause.LINK_FAILURE)
        assert fault is not None
        assert fault.observed_ed == 6 * MS
        assert fault.ped == 5 * MS
        assert fault.pair_id == "C1"
        assert fault.cause is FaultCause.LINK_FAILURE

    @given(ed1=st.integers(min_value=0, max_value=10**10),
           ed2=st.integers(min_value=0, max_value=10**10))
    def test_monotone_in_ed(self, ed1, ed2):
        pair = create_contract_pair("C1", "S1", "S8", 5 * MS)
        if observe(pair.strong, ed1, 0, FaultCause.ESTIMATION_CYCLE) is None \
                and ed2 <= ed1:
            assert observe(pair.strong, ed2, 0,
                           FaultCause.ESTIMATION_CYCLE) is None

    @given(ed=st.integers(min_value=0, max_value=10**10))
    def test_weak_subsumes_strong(self, ed):
        pair = create_contract_pair("C1", "S1", "S8", 5 * MS, 9 * MS)
        if observe(pair.strong, ed, 0, FaultCause.ESTIMATION_CYCLE) is None:
            assert observe(pair.weak, ed, 0,
                           FaultCause.ESTIMATION_CYCLE) is None


class TestModify:
    def test_tightening_emits_event(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS))
        event = store.modify("C1", ContractKind.STRONG, 2 * MS, 60_000_000_000)
        assert event is not None
        assert event.old_ped == 5 * MS and event.new_ped == 2 * MS
        assert store.pair("C1").strong.ped == 2 * MS
        assert store.pair("C1").weak.ped == 10 * MS  # untouched

    def test_unchanged_value_is_noop(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS))
        assert store.modify("C1", ContractKind.STRONG, 5 * MS, 10) is None
        assert len(store.ped_changes) == 1  # only the initial record

    def test_raising_strong_above_weak_pulls_weak_up(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS, 10 * MS))
        store.modify("C1", ContractKind.STRONG, 20 * MS, 10)
        pair = store.pair("C1")
        assert pair.strong.ped == 20 * MS
        assert pair.weak.ped == 40 * MS  # ratio of 2 preserved

    def test_weak_below_strong_rejected(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS, 10 * MS))
        with pytest.raises(ContractError):
            store.modify("C1", ContractKind.WEAK, 4 * MS, 10)

    def test_unknown_pair_rejected(self):
        store = ContractStore()
        with pytest.raises(ContractError):
            store.modify("C9", ContractKind.STRONG, MS, 0)

    def test_nonpositive_ped_rejected(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS))
        with pytest.raises(ContractError):
            store.modify("C1", ContractKind.STRONG, 0, 10)


class TestSwitchActive:
    def test_flip_to_weak_governs_observation(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS, 10 * MS))
        assert store.switch_active("C1", ContractKind.WEAK, 40)
        pair = store.pair("C1")
        assert pair.active_kind is ContractKind.WEAK
        assert observe(pair.active, 7 * MS, 41, FaultCause.ESTIMATION_CYCLE) is None

    def test_reinstate_strong(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS))
        store.switch_active("C1", ContractKind.WEAK, 40)
        store.switch_active("C1", ContractKind.STRONG, 80)
        assert store.pair("C1").active_kind is ContractKind.STRONG

    def test_switch_to_already_active_is_noop(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS))
        assert not store.switch_active("C1", ContractKind.STRONG, 40)
        assert len(store.ped_changes) == 1

    def test_exactly_one_active_at_all_times(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS))
        pair = store.pair("C1")
        for kind in (ContractKind.WEAK, ContractKind.STRONG, ContractKind.WEAK):
            store.switch_active("C1", kind, 10)
            assert pair.strong.active != pair.weak.active


class TestActivePedTimeline:
    def test_timeline_lookup(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS, 10 * MS))
        store.switch_active("C1", ContractKind.WEAK, 40)
        store.modify("C1", ContractKind.STRONG, 2 * MS, 60)
        timeline = BoundTimeline(store.ped_changes)
        assert timeline.at("S1", "S8", 0).active_ped == 5 * MS
        assert timeline.at("S1", "S8", 39).active_ped == 5 * MS
        assert timeline.at("S1", "S8", 40).active_ped == 10 * MS
        # weak still active
        assert timeline.at("S1", "S8", 61).active_ped == 10 * MS

    def test_duplicate_endpoints_rejected(self):
        store = store_with(create_contract_pair("C1", "S1", "S8", 5 * MS))
        with pytest.raises(ContractError):
            store.add(create_contract_pair("C2", "S1", "S8", 7 * MS))

"""The strategy registry: round-trips, registration rules, live views."""

import pytest

from repro.errors import OffloadError
from repro.runtime.strategies import (
    AmoPollCompletion,
    MulticastDispatch,
    SequentialStoreDispatch,
    SyncUnitCompletion,
    get_variant,
    register_variant,
    variant_features,
    variant_for_features,
    variant_names,
)
from repro.soc.config import SoCConfig

PAPER_VARIANTS = ("baseline", "multicast_only", "hw_sync_only", "extended")


def test_the_four_paper_variants_are_registered():
    assert set(PAPER_VARIANTS) <= set(variant_names())


@pytest.mark.parametrize("name", PAPER_VARIANTS)
def test_name_to_features_to_name_round_trip(name):
    spec = get_variant(name)
    assert variant_for_features(*spec.features).name == name


def test_features_match_the_historical_table():
    assert variant_features()["baseline"] == (False, False)
    assert variant_features()["multicast_only"] == (True, False)
    assert variant_features()["hw_sync_only"] == (False, True)
    assert variant_features()["extended"] == (True, True)


def test_spec_features_derive_from_strategies():
    spec = get_variant("extended")
    assert isinstance(spec.dispatch, MulticastDispatch)
    assert isinstance(spec.completion, SyncUnitCompletion)
    assert spec.use_multicast and spec.use_hw_sync
    spec = get_variant("baseline")
    assert isinstance(spec.dispatch, SequentialStoreDispatch)
    assert isinstance(spec.completion, AmoPollCompletion)
    assert not spec.use_multicast and not spec.use_hw_sync


def test_unknown_variant_lists_the_registry():
    with pytest.raises(OffloadError, match="available"):
        get_variant("warp_speed")


def test_auto_name_is_reserved():
    with pytest.raises(OffloadError, match="auto"):
        register_variant("auto", SequentialStoreDispatch(),
                         AmoPollCompletion())


def test_duplicate_registration_requires_replace():
    with pytest.raises(OffloadError, match="already registered"):
        register_variant("baseline", SequentialStoreDispatch(),
                         AmoPollCompletion())
    # replace=True restores the exact same pairing, so the registry is
    # unchanged after this test.
    spec = register_variant("baseline", SequentialStoreDispatch(),
                            AmoPollCompletion(), replace=True)
    assert spec.features == (False, False)


@pytest.mark.parametrize("name", PAPER_VARIANTS)
def test_for_variant_round_trips_through_the_registry(name):
    config = SoCConfig.extended().for_variant(name)
    multicast, hw_sync = get_variant(name).features
    assert config.multicast == multicast
    assert config.hw_sync == hw_sync

"""Each run setting is decided in one place: ``RunConfig`` resolves a command's
options, ``config`` holds the order ladder and ``rank`` the certificates' other
constants, no phase has a default, and a load has no switch."""

from __future__ import annotations

import inspect

import pytest

import segre
from segre import (
    lie_hull_dimension,
    mirror_sigma,
    orbit_annihilator,
    orbit_ideal_in_M,
    rank,
    rank_profile,
    verify_all,
)

PHASES = [
    rank_profile,
    orbit_annihilator,
    orbit_ideal_in_M,
    mirror_sigma,
    lie_hull_dimension,
    verify_all,
]


@pytest.mark.parametrize("phase", PHASES, ids=[phase.__name__ for phase in PHASES])
def test_phases_take_every_setting_from_their_caller(phase):
    parameters = inspect.signature(phase).parameters.values()
    assert [p.name for p in parameters if p.default is not p.empty] == []


def test_the_rank_certificates_have_no_options():
    # the fields of RunConfig are pinned in test_record.py
    assert not hasattr(segre, "RankOptions")
    assert not hasattr(segre.config, "RankOptions")


def test_the_certificate_constants():
    assert (rank.TRIALS, rank.VALUE_BOUND, rank.ORDER_LADDER) == (3, 1 << 16, (0, 4, 8))
    # the ladder has one owner, which the loads read their top order from too
    assert rank.ORDER_LADDER is segre.config.ORDER_LADDER is segre.expressions.ORDER_LADDER


@pytest.mark.parametrize("constructor", ["load_manifold", "manifold_from_graph_series", "manifold_from_rho_series"])
def test_a_load_has_no_verify_switch(constructor):
    # every load passes the reality gate at its order
    assert "verify" not in inspect.signature(getattr(segre, constructor)).parameters


def test_a_manifold_keeps_no_source():
    # every order up to the top is a truncation of the top form
    assert "source" not in segre.GenericManifold.__slots__
    assert "top" in segre.GenericManifold.__slots__

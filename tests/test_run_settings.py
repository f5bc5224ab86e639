"""Each run setting is decided in one place: ``RunConfig`` resolves a command's
options, ``rank`` holds the certificates' constants, and no phase has a default."""

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

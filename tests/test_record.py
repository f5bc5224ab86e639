"""The immutable record base, checked on the engine's own classes."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

import segre
from segre import ConfigError, Dims, RankCertificate, RunConfig, gauss, verify_all
from segre.fields import cr_basis
from segre.record import Record

from conftest import load_fixture


def _certificate(**changes):
    fields = dict(
        rank=1,
        minor_rows=(0,),
        minor_cols=(1,),
        line_point=(3, -5),
        witness_exponent=1,
        witness_value=gauss(2, -1),
        error_bound=Fraction(1, 8),
        kappa_used=8,
        stable=True,
    )
    fields.update(changes)
    return RankCertificate(**fields)


def test_defaults():
    assert RunConfig()._values() == (8, None, None, None, segre.DEFAULT_SEED)
    assert RunConfig(kappa=10).kappa == 10


def test_positional_and_keyword_construction_agree():
    assert Dims(3, 1) == Dims(N=3, d=1) == Dims(3, d=1)
    assert RunConfig(6, 4) == RunConfig(kappa=6, J_max=4)
    assert RankCertificate(*_certificate()._values()) == _certificate()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Dims(3),
        lambda: Dims(d=1),
        lambda: Dims(3, 1, 0),
        lambda: Dims(3, 1, n=2),
        lambda: Dims(3, N=3),
        lambda: RunConfig(kapa=8),
    ],
    ids=["missing-positional", "missing-keyword", "too-many", "unknown", "repeated", "misspelt"],
)
def test_bad_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_post_init_validates():
    with pytest.raises(ConfigError):
        RunConfig(kappa=1)
    with pytest.raises(ConfigError):
        RunConfig(kappa=8, degree_bound=5)
    with pytest.raises(ValueError):
        Dims(2, 2)


def test_assignment_and_deletion_refused():
    dims = Dims(3, 1)
    with pytest.raises(AttributeError):
        dims.N = 4
    with pytest.raises(AttributeError):
        dims.other = 4
    with pytest.raises(AttributeError):
        del dims.d
    assert dims == Dims(3, 1)


class _TwinDims(Record):
    N: int
    d: int


def test_equality_and_hash():
    assert Dims(3, 1) == Dims(3, 1)
    assert Dims(3, 1) != Dims(3, 2)
    assert hash(Dims(3, 1)) == hash(Dims(3, 1)) == hash((3, 1))
    assert len({_certificate(), _certificate(), _certificate(rank=2)}) == 2
    twin = _TwinDims(3, 1)
    assert Dims(3, 1).__eq__(twin) is NotImplemented
    assert Dims(3, 1) != twin


def test_repr_has_the_dataclass_format():
    assert repr(Dims(3, 1)) == "Dims(N=3, d=1)"
    assert repr(RunConfig(kappa=6, seed=7)) == (
        "RunConfig(kappa=6, J_max=None, bracket_depth=None, degree_bound=None, seed=7)"
    )


def test_replace():
    cert = _certificate()
    changed = cert.replace(stable=False, kappa_used=12)
    assert (changed.stable, changed.kappa_used) == (False, 12)
    assert changed.replace(stable=True, kappa_used=8) == cert
    assert cert.stable is True
    with pytest.raises(ConfigError):
        RunConfig().replace(kappa=1)
    with pytest.raises(TypeError):
        cert.replace(ranks=2)


@pytest.fixture(scope="module")
def report_h():
    return verify_all(load_fixture("h"), RunConfig())


@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_deepcopy_and_pickle_round_trip(roundtrip, report_h):
    for value in (Dims(4, 2), RunConfig(kappa=6, seed=3), _certificate()):
        again = roundtrip(value)
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)
        assert repr(again) == repr(value)
    # a report holds series and formal maps; a field is one more immutable value
    field = cr_basis(load_fixture("h"))[0][0]
    for value in (report_h, field):
        again = roundtrip(value)
        assert type(again) is type(value)
        assert again == value and repr(again) == repr(value)
    assert again.valid_order == field.valid_order


def test_fields_become_slots_and_defaults():
    assert RunConfig.__slots__ == ("kappa", "J_max", "bracket_depth", "degree_bound", "seed")
    assert RunConfig._defaults["seed"] == segre.DEFAULT_SEED and "N" not in Dims._defaults
    assert not hasattr(Dims(3, 1), "__dict__")

import copy
import dataclasses
import importlib
import importlib.util
import pickle
import types
from fractions import Fraction
from pathlib import Path

import pytest

import cgaosc
from cgaosc.errors import JacobiFailure, NotClosed
from cgaosc.onshell import omega1_abstract_threehalf
from cgaosc.realizations import (Z_MINUS, Z_PLUS, Z_ZERO, free_generators,
                                 w_label)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.spectrum import ladder_state

ROOT = Path(__file__).resolve().parents[1]


def test_submodules_are_not_shadowed():
    import cgaosc.spectrum as spectrum_module
    import cgaosc.transform as transform_module
    assert isinstance(spectrum_module, types.ModuleType)
    assert isinstance(transform_module, types.ModuleType)
    assert callable(spectrum_module.spectrum)
    assert callable(transform_module.transform)


def test_public_names_resolve():
    for name in cgaosc.__all__:
        assert getattr(cgaosc, name) is not None, name


def test_benchmark_entry_points_exist():
    # perfbench wraps these names by lookup; a rename in src/ would break
    # its --trace runs with a KeyError
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for modname, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr,
                                None)), f"{modname}.{attr}"
    for modname, cls_name, attr, _ in tracing.METHODS + tracing.COUNTED:
        cls = getattr(importlib.import_module(modname), cls_name)
        assert attr in vars(cls), f"{modname}.{cls_name}.{attr}"


@dataclasses.dataclass
class _Holder:
    value: object


def _via_asdict(x):
    if dataclasses.is_dataclass(x):
        return type(x)(**dataclasses.asdict(x))
    return dataclasses.asdict(_Holder(x))["value"]


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "asdict": _via_asdict,
}


def _values():
    gens = free_generators(HalfInt(1))
    record = ladder_state(HalfInt(3), "section7", (1, 1))
    return {
        "HalfInt": HalfInt(3),
        "CScalar": CScalar.c_power(-1, Fraction(1, 2)) + 3,
        "Chart": gens[Z_ZERO].chart,
        "WeylOp": gens[w_label(HalfInt(-1))],
        "GaussFunc": record.state,
        "AlgebraElement": omega1_abstract_threehalf(),
        "SpectrumRecord": record,
        "NotClosed": NotClosed((Z_PLUS, Z_MINUS), gens[Z_ZERO]),
        "JacobiFailure": JacobiFailure((Z_PLUS, Z_ZERO, Z_MINUS),
                                       omega1_abstract_threehalf(),
                                       "graded"),
    }


VALUES = _values()


def _comparable(x):
    if isinstance(x, Exception):
        return type(x), x.args, str(x)
    return x


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("name", VALUES)
def test_values_round_trip(name, trip):
    value = VALUES[name]
    back = ROUND_TRIPS[trip](value)
    assert type(back) is type(value)
    assert _comparable(back) == _comparable(value)

"""Exception hierarchy: every concrete error is an input or a numerical failure."""

from __future__ import annotations

from spa_witness import errors
from spa_witness.errors import InputError, NumericalError, SpaWitnessError

BASES = (InputError, NumericalError)


def all_subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(all_subclasses(sub))
    return found


def test_every_error_under_exactly_one_base():
    concrete = [cls for cls in all_subclasses(SpaWitnessError) if cls not in BASES]
    assert concrete
    for cls in concrete:
        assert sum(issubclass(cls, base) for base in BASES) == 1, cls.__name__


def test_numerical_failures():
    numerical = {
        cls.__name__
        for cls in all_subclasses(NumericalError)
    }
    assert numerical == {"ConvergenceFailure", "NonRealResult", "ZeroTrace"}


def test_input_failures():
    # one class per rule: the lower and upper bounds on c are NotNegative and NotAWitness
    inputs = {cls.__name__ for cls in all_subclasses(InputError)}
    assert inputs == {
        "DimensionMismatch",
        "InvalidParams",
        "NotADensity",
        "NotAWitness",
        "NotHermitian",
        "NotNegative",
        "ParseError",
        "WeightSumError",
    }


def test_module_classes_all_in_hierarchy():
    declared = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    ]
    walked = set(all_subclasses(SpaWitnessError)) | {SpaWitnessError}
    assert set(declared) == walked

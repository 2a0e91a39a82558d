import inspect
import pickle

import pytest

from hbtsim import errors

EXAMPLES = [
    errors.IncompatibleTracesError("dt differs"),
    errors.OffGridDelayError("tau is off the grid"),
    errors.InsufficientDataError("too few samples"),
    errors.TraceFormatError(7, "expected 2 values"),
    errors.ConfigError("sweep.tau_max", "tau=5e-05 exceeds half the record length"),
]


def test_every_error_class_has_an_example():
    classes = {c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__}
    assert {type(e) for e in EXAMPLES} == classes


@pytest.mark.parametrize("error", EXAMPLES, ids=lambda e: type(e).__name__)
def test_error_survives_pickling(error):
    # A sweep worker hands its exception to the parent pickled.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)

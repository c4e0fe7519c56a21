"""Every package error survives pickling, as an error raised in a worker
process must to reach the caller."""

import pickle

import pytest

from dunkl_lab import errors

ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.DunklLabError)
]

# the fields each error takes after its message
FIELDS = {
    errors.StepUnderflowError: {
        "time": 0.375, "path_index": 3, "state": (0.1, -0.2), "root": 1, "dt": 1e-6,
    },
}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_pickles_with_its_message_and_fields(cls):
    err = cls("what went wrong", **FIELDS.get(cls, {}))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert back.args == err.args and str(back) == "what went wrong"
    assert vars(back) == FIELDS.get(cls, {})

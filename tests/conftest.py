import itertools
import random

import pytest

from hbsim.core import ExtendedTransaction
from hbsim.simulator import ArrivalTx

_counter = itertools.count(1)


def make_tx(value, size_bytes, **kwargs):
    """Build a transaction with a deterministic unique id."""
    kwargs.setdefault("id", next(_counter).to_bytes(32, "big"))
    return ExtendedTransaction(value=value, size_bytes=size_bytes, **kwargs)


def make_record(value, size_bytes, fee_sat, seq, input_ref=None):
    """Build a pending record with a deterministic unique id."""
    return ArrivalTx(next(_counter).to_bytes(32, "big"), value, size_bytes, input_ref, fee_sat, seq)


@pytest.fixture
def rng():
    return random.Random(20160101)


@pytest.fixture
def tx_factory():
    return make_tx

"""The integer rule of ``matcore`` at every public integer argument.

A dimension, an index or a count is a Python or numpy integer, never a bool,
within its bounds, and comes back from the rule as ``int``.  Anything else
raises the documented error, which names the argument: ``DomainError`` for
dimensions and indices, ``PreconditionError`` for ``budget``, ``seed`` and
``max_iter``.  The d of a map on M_d whose d^2 x d^2 matrix is built has a
size bound too: above d = 64 that matrix exceeds ``MAX_DIM``, and ``SizeError``
is raised before it is allocated.
"""

import dataclasses
from typing import Callable

import numpy as np
import pytest

from sgwl import decomp, gksl, matcore, posmap
from sgwl.matcore import DomainError, PreconditionError, SizeError

from helpers import choi_map


def one_argument(fn, value):
    return fn(value)


@dataclasses.dataclass(frozen=True)
class Argument:
    entry: Callable  # a public entry point
    name: str  # its integer argument
    good: int
    out_of_range: tuple
    call: Callable = one_argument  # (entry, value) -> entry called with the argument at value
    error: type = DomainError
    too_large: tuple = ()  # values that raise SizeError

    def __call__(self, value):
        return self.call(self.entry, value)


def tmix_generator():
    return gksl.build_generator(gksl.qubit_spec(np.diag([1.0, -1.0, 1.0])))


FLAGSHIP_CHOI = posmap.choi(decomp.witness_product_map(1.0))
# Phi[2, 0.6, 0.6] on M_3 is searched, so budget and seed reach the search
SEARCHED_MAP = choi_map(2.0, 0.6, 0.6)

ARGUMENTS = [
    Argument(matcore.devectorize, "dim", 3, (0, -3), lambda f, v: f(np.arange(9), v)),
    Argument(matcore.partial_transpose, "dim_a", 2, (0, -2), lambda f, v: f(np.eye(6), v, 3)),
    Argument(matcore.partial_transpose, "dim_b", 3, (0, -3), lambda f, v: f(np.eye(6), 2, v)),
    Argument(gksl.gell_mann_basis, "d", 3, (1, 0)),
    Argument(gksl.identity_superop, "d", 2, (0, -2), too_large=(65, 10**4)),
    Argument(gksl.transpose_superop, "d", 3, (0, -1), too_large=(65, 10**4)),
    Argument(gksl.trace_to_identity_superop, "d", 2, (0, -1), too_large=(65, 10**4)),
    Argument(gksl.maximally_entangled_projector, "d", 2, (0, -1), too_large=(65, 10**4)),
    Argument(gksl.kron_superop, "da", 2, (0, -2), lambda f, v: f(np.eye(4), np.eye(9), v, 3)),
    Argument(gksl.kron_superop, "db", 3, (0, -3), lambda f, v: f(np.eye(4), np.eye(9), 2, v)),
    Argument(gksl.KossakowskiSpec, "dim", 2, (1, 0),
             lambda f, v: f(v, np.zeros((2, 2)), np.eye(3), gksl.pauli_basis())),
    Argument(decomp.bell_state_projector, "mu", 1, (-1, 4), lambda f, v: f(v, 2)),
    Argument(decomp.bell_state_projector, "nu", 2, (-1, 4), lambda f, v: f(1, v)),
    Argument(decomp.decomposability_feasibility, "max_iter", 60, (0, -1),
             lambda f, v: f(FLAGSHIP_CHOI, max_iter=v), PreconditionError),
    Argument(decomp.decomposability_propagation_check, "max_iter", 40, (0, -1),
             lambda f, v: f(tmix_generator(), max_iter=v), PreconditionError),
    Argument(posmap.map_positivity_check, "budget", 2, (0, -1),
             lambda f, v: f(SEARCHED_MAP, budget=v), PreconditionError),
    Argument(posmap.map_positivity_check, "seed", 7, (-1,),
             lambda f, v: f(SEARCHED_MAP, budget=2, seed=v), PreconditionError),
    Argument(posmap.kossakowski_positivity_check, "budget", 2, (0, -1),
             lambda f, v: f(tmix_generator(), budget=v), PreconditionError),
    Argument(posmap.kossakowski_positivity_check, "seed", 7, (-1,),
             lambda f, v: f(tmix_generator(), seed=v), PreconditionError),
]

# True and False include the calls bell_state_projector(True, 2) and
# maximally_entangled_projector(True), which got past the earlier checks;
# 2.0 built a KossakowskiSpec whose .noise then raised a TypeError
NOT_INTEGERS = (True, False, 2.0, 2.5, np.float64(3), "3", np.bool_(True))


def fingerprint(result):
    """Everything a result holds, arrays as raw bytes and scalars by type and
    repr, so an ``np.int64`` field differs from an ``int`` one."""
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    if isinstance(result, (tuple, list)):
        return tuple(fingerprint(r) for r in result)
    if dataclasses.is_dataclass(result):
        return type(result), tuple(fingerprint(getattr(result, f.name))
                                   for f in dataclasses.fields(result))
    return type(result), repr(result)


@pytest.mark.parametrize("arg", ARGUMENTS,
                         ids=[f"{a.entry.__name__}-{a.name}" for a in ARGUMENTS])
def test_integer_argument(arg):
    expected = fingerprint(arg(arg.good))
    for kind in (np.int64, np.int32, np.uint8):
        assert fingerprint(arg(kind(arg.good))) == expected
    cases = [(value, arg.error) for value in NOT_INTEGERS + arg.out_of_range]
    for value, error in cases + [(value, SizeError) for value in arg.too_large]:
        with pytest.raises(error, match=f"^{arg.name} must be ") as info:
            arg(value)
        assert type(info.value) is error


def test_rule_returns_int():
    assert type(matcore._int(np.uint32(3), "n", 1)) is int
    assert matcore._int(3, "n", 0, 3) == 3
    message = r"^n must be one of the integers in 0\.\.3, got 4$"
    with pytest.raises(PreconditionError, match=message):
        matcore._int(4, "n", 0, 3, error=PreconditionError)


def test_numpy_seed_near_its_maximum_does_not_wrap():
    # start k draws with seed + k, which wrapped around for np.uint32(2**32 - 1)
    expected = posmap.map_positivity_check(SEARCHED_MAP, budget=3, seed=2**32 - 1)
    verdict = posmap.map_positivity_check(SEARCHED_MAP, budget=3, seed=np.uint32(2**32 - 1))
    assert verdict.start_values.tobytes() == expected.start_values.tobytes()

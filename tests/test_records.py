"""The record rule of ``matcore`` and the public validation branches.

Every array-holding record is a frozen dataclass compared by identity, and an
array that other objects cache or share is read-only: a spec's H and C, which
a generator's cached parts are computed from, and a witness state's matrix.
The paper's fixed objects (the 16 entangled basis projectors, the
bound-entangled state and the flagship generator) are built once and shared.
"""

import copy
import dataclasses
import inspect

import numpy as np
import pytest

from sgwl import cli, decomp, gksl, matcore, posmap, scenarios
from sgwl.matcore import DomainError, ShapeError


def flagship_feasibility():
    return decomp.decomposability_feasibility(posmap.choi(decomp.witness_product_map(1.0)))


def depolarizing_generator():
    return gksl.build_generator(gksl.qubit_spec(np.eye(3)))


RECORDS = {
    "Spectrum": lambda: matcore.hermitian_eig(np.diag([1.0, 2.0])),
    "HermitianBasis": gksl.pauli_basis,
    "KossakowskiSpec": lambda: gksl.qubit_spec(np.eye(3)),
    "Generator": depolarizing_generator,
    "WitnessState": lambda: decomp.WitnessState(np.eye(16) / 16),
    "DecompositionCertificate": lambda: flagship_feasibility().certificate,
    "FeasibilityResult": flagship_feasibility,
    "NoisePropagationReport": lambda: decomp.decomposability_propagation_check(
        depolarizing_generator()),
    "PositivityVerdict": lambda: posmap.is_completely_positive(np.eye(4)),
    "ProductConditionReport": lambda: posmap.product_positivity_necessary(
        np.eye(3), np.eye(3), gksl.pauli_basis(), np.eye(2)),
}
# the scenario reports hold floats, strings, dicts and lists of checks, no arrays
ARRAY_FREE = {"CheckResult", "ScenarioReport"}


def test_every_array_record_follows_the_rule():
    found = {name: cls for module in (matcore, gksl, posmap, decomp, scenarios, cli)
             for name, cls in inspect.getmembers(module, dataclasses.is_dataclass)
             if inspect.isclass(cls) and cls.__module__ == module.__name__}
    assert set(found) - ARRAY_FREE == set(RECORDS)
    for name in RECORDS:
        params = found[name].__dataclass_params__
        assert params.frozen and not params.eq, name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_identity_equality_hash_and_frozen_fields(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    clone = copy.copy(record)
    # == is identity: no element-wise array comparison, so no ValueError
    assert record == record and not record != record
    assert record != clone and (record == twin) == (record is twin)
    assert len({record, clone}) == 2 and hash(record) == hash(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(record)[0].name, None)


def test_spec_arrays_are_read_only_copies():
    c = np.eye(3)
    spec = gksl.qubit_spec(c, hamiltonian=np.zeros((2, 2)))
    gen = gksl.build_generator(spec)
    assert posmap.kossakowski_positivity_check(gen).status == posmap.STATUS_CP
    # writing the stored C once left the generator's cached noise part stale
    for arr in (spec.c_matrix, spec.hamiltonian):
        with pytest.raises(ValueError, match="read-only"):
            arr[:] = -np.eye(arr.shape[0])
    c[:] = -np.eye(3)  # the caller's own array stays the caller's
    assert np.array_equal(spec.c_matrix, np.eye(3))
    assert posmap.kossakowski_positivity_check(gen).status == posmap.STATUS_CP


def test_witness_matrix_is_a_read_only_copy():
    m = np.eye(16) / 16
    state = decomp.WitnessState(m)
    with pytest.raises(ValueError, match="read-only"):
        state.mat[0, 0] = 1.0
    assert state.mat is not m and m.flags.writeable


def test_fixed_objects_are_shared():
    # the entangled basis projectors and the bound-entangled state: TestBellProjectors
    gen = decomp.witness_product_generator()
    assert decomp.witness_product_generator() is gen
    for factor in gen.factors:
        assert not factor.spec.c_matrix.flags.writeable
    # the closed forms' M_2 blocks are shared the same way
    for block in decomp._qubit_blocks():
        assert not block.flags.writeable


def qubit_noise_generator():
    return gksl.build_generator(gksl.qubit_spec(np.diag([1.0, -1.0, 1.0])))


E3 = np.eye(3)
# Public validation branches: (call, documented error, message fragment).
VALIDATION = [
    pytest.param(lambda: decomp.WitnessState(np.eye(16) / 8), DomainError, "trace 1",
                 id="witness-trace"),
    pytest.param(lambda: decomp.WitnessState(np.diag([2.0, -1.0] + [0.0] * 14)), DomainError,
                 "must be PSD", id="witness-not-psd"),
    pytest.param(lambda: decomp.WitnessState(decomp.bell_state_projector(0, 0).mat,
                                             ppt_checked=True),
                 DomainError, "partial-transpose", id="witness-not-ppt"),
    pytest.param(lambda: decomp.witness_product_map(-1), DomainError, "nonnegative",
                 id="witness_product_map-negative-t"),
    pytest.param(lambda: decomp.explicit_decomposition(-1), DomainError, "nonnegative",
                 id="explicit_decomposition-negative-t"),
    pytest.param(lambda: matcore.as_cmatrix(np.zeros(3)), ShapeError, "2-d",
                 id="as_cmatrix-1d"),
    pytest.param(lambda: matcore.as_hermitian(np.zeros((2, 3))), ShapeError, "square",
                 id="as_hermitian-non-square"),
    pytest.param(lambda: matcore.partial_transpose(np.eye(4), 2, 2, side="C"), DomainError,
                 "side must be", id="partial_transpose-side"),
    pytest.param(lambda: gksl.apply_superop(np.eye(4), E3), ShapeError, "does not act",
                 id="apply_superop-shape"),
    pytest.param(lambda: gksl.kron_superop(np.eye(4), np.eye(4), 2, 3), ShapeError,
                 "do not match", id="kron_superop-shape"),
    pytest.param(lambda: gksl.choi(np.eye(5)), ShapeError, "superoperator must be",
                 id="choi-5x5"),
    pytest.param(lambda: gksl.positivity_functional(qubit_noise_generator(), E3[0], E3[1]),
                 ShapeError, "do not match generator dim", id="positivity_functional-shape"),
    pytest.param(lambda: gksl.map_functional(np.eye(4), E3[0], E3[1]), ShapeError,
                 "does not act", id="map_functional-shape"),
    pytest.param(lambda: gksl.basis_rotation_matrix(E3, gksl.pauli_basis()), ShapeError,
                 "V must be 2x2", id="basis_rotation_matrix-shape"),
    pytest.param(lambda: gksl.KossakowskiSpec(3, np.zeros((3, 3)), np.zeros((8, 8)),
                                              gksl.pauli_basis()),
                 ShapeError, "basis dimension", id="spec-basis-dimension"),
    pytest.param(lambda: posmap.product_positivity_sufficient([1.0, 1.0, 1.0], [1.0, 1.0]),
                 ShapeError, "equal-length", id="product_positivity_sufficient-shape"),
    pytest.param(lambda: posmap.qubit_product_positivity([1.0, 1.0], [1.0, 1.0]), ShapeError,
                 "triples", id="qubit_product_positivity-shape"),
]


@pytest.mark.parametrize("call, error, message", VALIDATION)
def test_validation_branch(call, error, message):
    with pytest.raises(error, match=message):
        call()

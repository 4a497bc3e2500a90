"""Ensemble distinguishing harness on explicitly constructed ensembles."""

from __future__ import annotations

import numpy as np
import pytest

import stabent.distinguisher
from stabent import (
    BoundReport,
    Cut,
    EnsembleSpec,
    bell_pair_ensemble,
    distinguish,
    entanglement_entropy_oracle,
    magic_product_ensemble,
    simulate_circuit,
)
from stabent.cli import main


def test_ensemble_levels_match_oracle():
    # declared entropy levels are exact by construction; verify anyway
    rng = np.random.default_rng(50)
    high = bell_pair_ensemble(6)
    low = magic_product_ensemble(6, t=1)
    cut = Cut(6, {1, 2, 3})
    for _ in range(10):
        psi = simulate_circuit(high.make_circuit(rng))
        assert entanglement_entropy_oracle(psi, cut) == pytest.approx(3.0, abs=1e-9)
        circ = low.make_circuit(rng)
        assert circ.t == 1
        psi = simulate_circuit(circ)
        assert entanglement_entropy_oracle(psi, cut) == pytest.approx(0.0, abs=1e-9)


def test_gap_condition_errors():
    high = bell_pair_ensemble(6)
    same = EnsembleSpec("same-level", 6, 0, 3.0, high.make_circuit)
    with pytest.raises(ValueError, match="larger entropy level"):
        distinguish(high, same, 1 / 3)  # f == g
    with pytest.raises(ValueError, match=r"gap 3\.0 does not exceed 2\*t' = 4"):
        distinguish(high, magic_product_ensemble(6, t=2), 1 / 3)


def test_pair_with_mismatched_n_is_refused():
    low = magic_product_ensemble(4, t=0)
    with pytest.raises(
        ValueError, match="'bell-pairs' has 6 qubits, 'magic-product' has 4"
    ):
        distinguish(bell_pair_ensemble(6), low, 1 / 3)


def test_odd_n_is_refused():
    make = bell_pair_ensemble(4).make_circuit
    high = EnsembleSpec("odd-high", 5, 0, 2.0, make)
    low = EnsembleSpec("odd-low", 5, 0, 0.0, make)
    with pytest.raises(ValueError, match="even n >= 2, got 5"):
        distinguish(high, low, 1 / 3)


def test_circuit_with_wrong_n_is_refused():
    # the spec declares n = 6 but builds 4-qubit circuits
    make = magic_product_ensemble(4, t=0).make_circuit
    wrong = EnsembleSpec("wrong-n", 6, 0, 0.0, make)
    with pytest.raises(
        ValueError, match="'wrong-n' produced a 4-qubit circuit, expected n = 6"
    ):
        distinguish(bell_pair_ensemble(6), wrong, 1 / 3, trials=10, seed=3)


def test_budget_enforced_per_circuit():
    bad = EnsembleSpec(
        "cheater", 4, 0, 0.0, magic_product_ensemble(4, t=1).make_circuit
    )
    with pytest.raises(ValueError, match="budget"):
        distinguish(bell_pair_ensemble(4), bad, 1 / 3, trials=10, seed=3)


def test_clifford_ensembles_distinguished_perfectly():
    # t' = 0: the bounds are exact, so every trial is decided correctly
    high = bell_pair_ensemble(6)
    low = EnsembleSpec(
        "stabilizer-product", 6, 0, 0.0, magic_product_ensemble(6, t=0).make_circuit
    )
    res = distinguish(high, low, 1 / 3, trials=50, seed=51)
    assert res.trials == 50
    assert res.success_rate == 1.0
    assert res.guess in ("bell-pairs", "stabilizer-product")


def test_one_t_gate_ensembles():
    high = bell_pair_ensemble(6)
    low = magic_product_ensemble(6, t=1)
    res = distinguish(high, low, 1 / 3, trials=30, seed=52)
    assert res.success_rate >= 2 / 3
    assert res.bounds.upper - res.bounds.lower <= 2 + 1e-9


def test_result_serialization():
    # n = 4 would give gap 2, which does not exceed 2 t' = 2 for t' = 1
    with pytest.raises(ValueError, match="gap"):
        distinguish(bell_pair_ensemble(4), magic_product_ensemble(4, t=1), 1 / 3)
    high = bell_pair_ensemble(6)
    low = magic_product_ensemble(6, t=1)
    res = distinguish(high, low, 1 / 3, trials=5, seed=53)
    d = res.to_dict()
    assert d["trials"] == 5
    assert 0.0 <= d["success_rate"] <= 1.0
    assert d["guess"] in ("bell-pairs", "magic-product")
    assert {"lower", "upper", "estimate", "dim_S", "r"} <= set(d)


def test_interval_with_both_levels_is_internal_fault(monkeypatch, capsys):
    # an intact promise bounds the width below the gap, so [0, n/2] can only
    # come from a broken estimator: an internal fault, not a user error
    def both_levels(*, cut, **_):
        half = cut.n / 2
        return BoundReport(
            lower=0.0, upper=half, estimate=half / 2, dim_s=cut.n, r=0.0,
            samples_used=0, cut=cut, promise_violated=False,
        )

    monkeypatch.setattr(stabent.distinguisher, "estimate_entropy", both_levels)
    high = bell_pair_ensemble(6)
    low = magic_product_ensemble(6, t=1)
    with pytest.raises(RuntimeError, match="both"):
        distinguish(high, low, 1 / 3, seed=54)
    code = main(["distinguish", "--n", "6", "--trials", "1", "--seed", "54"])
    assert code == 5
    assert "internal error" in capsys.readouterr().err

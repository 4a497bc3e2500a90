"""Gate-list circuits shared by the tableau and dense backends."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NON_CLIFFORD_GATES = frozenset({"T", "TDG"})
GATE_ARITY = {
    "H": 1, "S": 1, "X": 1, "Y": 1, "Z": 1, "T": 1, "TDG": 1, "CNOT": 2,
}


class Gate(NamedTuple):
    """One gate: a name and its 1-based qubits. `Circuit` checks both.

    A tuple, so it also equals the plain tuple (name, qubits).
    """

    name: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on qubits 1..n; T/TDG are the non-Clifford gates.

    This is the one place a gate is checked: a known name, its arity,
    distinct qubits, each in 1..n.
    """

    n: int
    gates: tuple[Gate, ...]
    t: int = field(init=False, repr=False, compare=False)  # non-Clifford gates

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("qubit count must be positive")
        t = 0
        for name, qubits in self.gates:
            arity = GATE_ARITY.get(name)
            if arity is None:
                raise ValueError(f"unknown gate {name!r}")
            if len(qubits) != arity:
                raise ValueError(f"{name} takes {arity} qubit(s), got {qubits}")
            for q in qubits:
                if not 1 <= q <= n:
                    raise ValueError(f"{name} qubit {q} outside 1..{n}")
            if arity > 1 and len(set(qubits)) != arity:
                raise ValueError(f"{name} qubits must be distinct: {qubits}")
            t += name in NON_CLIFFORD_GATES
        object.__setattr__(self, "t", t)

    @classmethod
    def from_ops(cls, n: int, *ops: tuple) -> "Circuit":
        """Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2))."""
        return cls(n, tuple(Gate(name.upper(), tuple(qs)) for name, *qs in ops))

    @property
    def is_clifford(self) -> bool:
        return self.t == 0


_1Q_CLIFFORD = ("H", "S", "X", "Y", "Z")


def _random_clifford_gates(
    qubits: tuple[int, ...], rng: np.random.Generator, count: int
) -> list[Gate]:
    """`count` random gates over {H, S, CNOT, X, Y, Z} on the given qubits;
    CNOT-heavy for mixing."""
    m = len(qubits)
    gates = []
    for _ in range(count):
        if m > 1 and rng.random() < 0.4:
            a, b = rng.choice(m, size=2, replace=False)
            gates.append(Gate("CNOT", (qubits[a], qubits[b])))
        else:
            name = _1Q_CLIFFORD[int(rng.integers(len(_1Q_CLIFFORD)))]
            gates.append(Gate(name, (qubits[int(rng.integers(m))],)))
    return gates


def random_clifford_circuit(
    n: int, rng: np.random.Generator, n_gates: int | None = None
) -> Circuit:
    """Random circuit over {H, S, CNOT, X, Y, Z} on all n qubits, 10n gates
    unless n_gates is given."""
    if n_gates is None:
        n_gates = 10 * n
    gates = _random_clifford_gates(tuple(range(1, n + 1)), rng, n_gates)
    return Circuit(n, tuple(gates))


def random_clifford_t_circuit(
    n: int, t: int, rng: np.random.Generator, n_gates: int | None = None
) -> Circuit:
    """Random Clifford circuit with exactly t T/TDG gates spliced in."""
    base = list(random_clifford_circuit(n, rng, n_gates).gates)
    for _ in range(t):
        name = "T" if rng.random() < 0.5 else "TDG"
        pos = int(rng.integers(len(base) + 1))
        base.insert(pos, Gate(name, (int(rng.integers(n)) + 1,)))
    return Circuit(n, tuple(base))

"""Gate-list circuits shared by the tableau and dense backends."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CLIFFORD_GATES = frozenset({"H", "S", "CNOT", "X", "Y", "Z"})
NON_CLIFFORD_GATES = frozenset({"T", "TDG"})
GATE_ARITY = {
    "H": 1, "S": 1, "X": 1, "Y": 1, "Z": 1, "T": 1, "TDG": 1, "CNOT": 2,
}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        arity = GATE_ARITY.get(self.name)
        if arity is None:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.name} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct: {self.qubits}")


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on qubits 1..n; T/TDG are the non-Clifford gates."""

    n: int
    gates: tuple[Gate, ...]
    t: int = field(init=False, repr=False, compare=False)  # non-Clifford gates

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("qubit count must be positive")
        t = 0
        for g in self.gates:
            for q in g.qubits:
                if not 1 <= q <= self.n:
                    raise ValueError(f"{g.name} qubit {q} outside 1..{self.n}")
            t += g.name in NON_CLIFFORD_GATES
        object.__setattr__(self, "t", t)

    @classmethod
    def from_ops(cls, n: int, *ops: tuple) -> "Circuit":
        """Circuit.from_ops(2, ("H", 1), ("CNOT", 1, 2))."""
        return cls(n, tuple(Gate(name.upper(), tuple(qs)) for name, *qs in ops))

    @property
    def is_clifford(self) -> bool:
        return self.t == 0


_1Q_CLIFFORD = ("H", "S", "X", "Y", "Z")


def random_clifford_circuit(
    n: int, rng: np.random.Generator, n_gates: int | None = None
) -> Circuit:
    """Random circuit over {H, S, CNOT, X, Y, Z}; CNOT-heavy for mixing."""
    if n_gates is None:
        n_gates = 10 * n
    gates = []
    for _ in range(n_gates):
        if n > 1 and rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False) + 1
            gates.append(Gate("CNOT", (int(a), int(b))))
        else:
            name = _1Q_CLIFFORD[int(rng.integers(len(_1Q_CLIFFORD)))]
            gates.append(Gate(name, (int(rng.integers(n)) + 1,)))
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

"""Command-line front end: circuit files in, JSON reports out.

Circuit file grammar (1-based qubit indices, `#` starts a comment):

    qubits N
    H q | S q | X q | Y q | Z q | T q | TDG q | CNOT a b

Clifford circuits run on the tableau backend, which refuses more than
TABLEAU_CAP qubits; every other circuit runs on the dense backend, which
refuses more than DEFAULT_DENSE_CAP qubits.

`estimate --epsilon` defaults to default_epsilon(n) = 1/(8n) for n >= 2,
and to 0.25 at n = 1, where default_epsilon is not defined.

`estimate` checks its input in this order: the file and the cut (exit 2),
the dense cap (exit 3), the run settings --epsilon, --delta and --k/--t in
one EstimatorParams (exit 2), and only then simulates and estimates; the
tableau cap (exit 3) is checked as the tableau simulation starts.

Exit codes: 0 ok, 2 parse/config error, 3 qubit cap exceeded (dense or
tableau), 4 promise violation, 5 internal fault (a broken runtime
invariant).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .circuits import Circuit, Gate
from .distinguisher import bell_pair_ensemble, distinguish, magic_product_ensemble
from .estimator import (
    EstimatorParams,
    default_epsilon,
    estimate_entropy,
    required_sample_count,
)
from .statevector import (
    bell_difference_sample_bits,
    characteristic_distribution,
    entanglement_entropy_oracle,
    simulate_circuit,
)
from .symplectic import Cut, to_pauli_string
from .tableau import simulate_clifford, weyl_group_from_tableau
from .weyl import CapExceededError, weyl_group_oracle

__all__ = ["CircuitParseError", "main", "parse_circuit"]


class CircuitParseError(ValueError):
    """Malformed circuit file or run configuration (exit code 2)."""


def _circuit_at(lineno: int, n: int, gates: tuple[Gate, ...]) -> Circuit:
    try:
        return Circuit(n, gates)
    except ValueError as exc:
        raise CircuitParseError(f"line {lineno}: {exc}") from None


def _circuit(n: int, gates: list[Gate], linenos: list[int]) -> Circuit:
    """Circuit(n, gates); a rejected gate is re-checked alone for its line."""
    try:
        return Circuit(n, tuple(gates))
    except ValueError:
        for lineno, gate in zip(linenos, gates):
            _circuit_at(lineno, n, (gate,))
        raise


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit file grammar above into a Circuit.

    The parser checks the grammar only; `Circuit` checks the gates, and its
    error is reported at the first line it rejects.
    """
    n: int | None = None
    gates: list[Gate] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0].lower() != "qubits":
                raise CircuitParseError(f"line {lineno}: expected 'qubits N' header")
            try:
                n = int(tokens[1])
            except ValueError:
                raise CircuitParseError(f"line {lineno}: bad qubit count") from None
            _circuit_at(lineno, n, ())
            continue
        try:
            qubits = tuple(int(tok) for tok in tokens[1:])
        except ValueError:
            _circuit(n, gates, linenos)  # an earlier bad gate is reported first
            raise CircuitParseError(f"line {lineno}: bad qubit index") from None
        gates.append(Gate(tokens[0].upper(), qubits))
        linenos.append(lineno)
    if n is None:
        raise CircuitParseError("missing 'qubits N' header")
    return _circuit(n, gates, linenos)


def _load_circuit(path: str) -> Circuit:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CircuitParseError(f"cannot read {path}: {exc}") from None
    return parse_circuit(text)


def _parse_cut(text: str, n: int) -> Cut:
    try:
        indices = frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise CircuitParseError(f"bad cut value {text!r}") from None
    try:
        return Cut(n, indices)
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from None


def _resolve_k(args, circuit: Circuit) -> int:
    if args.k is not None:
        return args.k
    if args.t is not None:
        return 2 * args.t
    return 2 * circuit.t  # stabilizer dimension is at least n - 2t


def _emit(record: dict, output: str | None) -> None:
    """Write the report to `output` first, then to stdout, so a file that
    cannot be written leaves stdout empty (exit 2)."""
    text = json.dumps(record, indent=2) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CircuitParseError(f"cannot write {output}: {exc}") from None
    sys.stdout.write(text)


def _cmd_estimate(args) -> int:
    circuit = _load_circuit(args.circuit)
    cut = _parse_cut(args.cut, circuit.n)
    # The circuit picks the backend. simulate_circuit enforces the dense cap
    # (exit 3), so it runs before the run settings are checked (exit 2).
    psi = None if circuit.is_clifford else simulate_circuit(circuit)
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = default_epsilon(circuit.n) if circuit.n >= 2 else 0.25
    delta = args.delta
    k = _resolve_k(args, circuit)
    params = EstimatorParams(epsilon=epsilon, delta=delta, k=k, seed=args.seed)
    if psi is None:
        # The exact group draws no samples; its settings are checked anyway.
        backend = "tableau"
        group = weyl_group_from_tableau(simulate_clifford(circuit))
        report = estimate_entropy(group=group, cut=cut)
        epsilon = delta = None
    else:
        # The sample count is checked before anything is drawn.
        backend = "dense"
        count = required_sample_count(circuit.n, epsilon, delta)
        dist = characteristic_distribution(psi)
        rng = np.random.default_rng(args.seed)
        bits = bell_difference_sample_bits(dist, rng, count)
        report = estimate_entropy(samples=bits, cut=cut, params=params)

    record = report.to_dict()
    record.update(
        epsilon=epsilon,
        delta=delta,
        k=int(k),
        seed=int(args.seed),
        backend=backend,
    )
    _emit(record, args.output)
    if report.promise_violated:
        print(
            f"promise violated: dim S = {report.dim_s} < n - k = {circuit.n - k}",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_oracle(args) -> int:
    circuit = _load_circuit(args.circuit)
    cut = _parse_cut(args.cut, circuit.n)
    psi = simulate_circuit(circuit)
    entropy = entanglement_entropy_oracle(psi, cut)
    _emit(
        {
            "entropy": float(entropy),
            "n": circuit.n,
            "cut_A": [int(q) for q in cut.a_sorted],
            "backend": "dense",
        },
        args.output,
    )
    return 0


def _cmd_weyl(args) -> int:
    circuit = _load_circuit(args.circuit)
    if circuit.is_clifford:
        backend, group = "tableau", weyl_group_from_tableau(simulate_clifford(circuit))
    else:
        backend, group = "dense", weyl_group_oracle(simulate_circuit(circuit))
    _emit(
        {
            "dim": group.dim,
            "n": circuit.n,
            "basis": [to_pauli_string(v) for v in group.subspace.basis],
            "backend": backend,
        },
        args.output,
    )
    return 0


def _cmd_distinguish(args) -> int:
    n = args.n
    high = bell_pair_ensemble(n)
    low = magic_product_ensemble(n, t=args.t_prime)
    result = distinguish(
        high, low, args.delta, trials=args.trials, seed=args.seed, epsilon=args.epsilon
    )
    record = result.to_dict()
    record.update(
        f_level=high.entropy_level,
        g_level=low.entropy_level,
        t_prime=int(args.t_prime),
        n=int(n),
        delta=float(args.delta),
        seed=int(args.seed),
    )
    _emit(record, args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabent",
        description="Entanglement entropy bounds from stabilizer structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="entropy bounds for a circuit file")
    est.add_argument("circuit", help="circuit file path")
    est.add_argument("--cut", required=True, help="comma-separated A-side qubits")
    est.add_argument("--epsilon", type=float, default=None)
    est.add_argument("--delta", type=float, default=0.125)
    kt = est.add_mutually_exclusive_group()
    kt.add_argument("--k", type=int, default=None, help="stabilizer deficit promise")
    kt.add_argument("--t", type=int, default=None, help="non-Clifford budget (k=2t)")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--output", default=None)
    est.set_defaults(func=_cmd_estimate)

    orc = sub.add_parser("oracle", help="exact dense entropy at the cut")
    orc.add_argument("circuit")
    orc.add_argument("--cut", required=True)
    orc.add_argument("--output", default=None)
    orc.set_defaults(func=_cmd_oracle)

    wey = sub.add_parser("weyl", help="dump the unsigned stabilizer group")
    wey.add_argument("circuit")
    wey.add_argument("--output", default=None)
    wey.set_defaults(func=_cmd_weyl)

    dis = sub.add_parser("distinguish", help="run the ensemble distinguisher")
    dis.add_argument("--n", type=int, default=6)
    dis.add_argument("--t-prime", dest="t_prime", type=int, default=1)
    dis.add_argument("--trials", type=int, default=100)
    dis.add_argument("--delta", type=float, default=1.0 / 3.0)
    dis.add_argument("--epsilon", type=float, default=None)
    dis.add_argument("--seed", type=int, default=0)
    dis.add_argument("--output", default=None)
    dis.set_defaults(func=_cmd_distinguish)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except (CircuitParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each workload builds its inputs from the seed in `setup`, runs one
operation per `op(i)` through a public entry point of stabent (the CLI's
`main` in-process, or the library's `estimate_entropy`), and checks each
result in `check(i, result)` against `reference`, outside the timed region.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from stabent import circuits, cli, estimator, statevector, symplectic, tableau

TOL = 1e-9


@dataclass
class Verdict:
    """One operation's check: `ok` is False on any failed check. Each
    interval is (lower, upper, covered), where `covered` says whether it
    contains the exact entropy."""

    ok: bool
    intervals: list[tuple[float, float, bool]] = field(default_factory=list)
    reason: str = ""


def op_seed(seed: int, i: int) -> int:
    """The seed operation i passes to the program, fixed by the run's seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] >> 1)


def write_circuit(path: Path, circ) -> str:
    lines = [f"qubits {circ.n}"]
    lines += [" ".join((g.name, *map(str, g.qubits))) for g in circ.gates]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def gate_list(circ) -> list[tuple[str, tuple[int, ...]]]:
    return [(g.name, g.qubits) for g in circ.gates]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """stabent.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def read_report(result: tuple[int, str, str]) -> dict:
    code, out, err = result
    if code != 0:
        raise ValueError(f"exit code {code}: {err.strip()}")
    return json.loads(out)


def sampled_interval_ok(lower: float, upper: float, k: int, side: int) -> bool:
    """The sampled path's deterministic guarantees: ordered, inside
    [0, min(|A|, |B|)], and no wider than the promised deficit k."""
    return -TOL <= lower <= upper <= side + TOL and upper - lower <= k + TOL


def covers(lower: float, upper: float, exact: float) -> bool:
    return lower - TOL <= exact <= upper + TOL


class TableauClifford:
    """`stabent estimate <file> --cut 1..n/2` on random Clifford circuits."""

    n = 1000
    pool = 4  # distinct circuits, used in turn
    delta = 0.0  # exact path: every interval must cover

    def setup(self, seed: int, workdir: Path, gen) -> None:
        rng = np.random.default_rng(seed)
        self.circuits = [
            gen(circuits.random_clifford_circuit, self.n, rng) for _ in range(self.pool)
        ]
        self.paths = [
            write_circuit(workdir / f"clifford-{j}.qc", c)
            for j, c in enumerate(self.circuits)
        ]
        self.cut = list(range(1, self.n // 2 + 1))
        self.cut_arg = ",".join(map(str, self.cut))
        self.exact: dict[int, float] = {}

    def op(self, i: int):
        return run_cli(["estimate", self.paths[i % self.pool], "--cut", self.cut_arg])

    def check(self, i: int, result) -> Verdict:
        rep = read_report(result)
        j = i % self.pool
        if j not in self.exact:
            ent = reference.stabilizer_prefix_entropies(self.n, gate_list(self.circuits[j]))
            self.exact[j] = float(ent[self.n // 2])
        exact = self.exact[j]
        lo, hi = rep["lower"], rep["upper"]
        ok = (
            lo == hi == exact
            and rep["dim_S"] == self.n
            and rep["backend"] == "tableau"
            and rep["cut_A"] == self.cut
        )
        return Verdict(ok, [(lo, hi, covers(lo, hi, exact))])


class DenseMagic:
    """`stabent estimate <file> --cut 1..6 --t 2 --seed s` on random
    Clifford+T circuits at the dense cap, default epsilon and delta."""

    n = 12
    t = 2
    pool = 4
    delta = 0.125

    def setup(self, seed: int, workdir: Path, gen) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.circuits = [
            gen(circuits.random_clifford_t_circuit, self.n, self.t, rng)
            for _ in range(self.pool)
        ]
        self.paths = [
            write_circuit(workdir / f"magic-{j}.qc", c)
            for j, c in enumerate(self.circuits)
        ]
        self.half = self.n // 2
        self.cut_arg = ",".join(map(str, range(1, self.half + 1)))
        self.exact: dict[int, float] = {}

    def op(self, i: int):
        return run_cli([
            "estimate", self.paths[i % self.pool], "--cut", self.cut_arg,
            "--t", str(self.t), "--seed", str(op_seed(self.seed, i)),
        ])

    def check(self, i: int, result) -> Verdict:
        rep = read_report(result)
        j = i % self.pool
        if j not in self.exact:
            psi = reference.dense_state(self.n, gate_list(self.circuits[j]))
            self.exact[j] = reference.prefix_entropy(psi, self.half)
        k = 2 * self.t
        lo, hi = rep["lower"], rep["upper"]
        need = reference.required_samples(self.n, 1.0 / (8 * self.n), self.delta)
        ok = (
            sampled_interval_ok(lo, hi, k, self.half)
            and rep["backend"] == "dense"
            and rep["k"] == k
            and rep["samples_used"] == need
            and not rep["promise_violated"]
        )
        return Verdict(ok, [(lo, hi, covers(lo, hi, self.exact[j]))])


class CutProfile:
    """Library calls: `estimate_entropy(group=...)` for every prefix cut of
    one n = 300 tableau group (of four, in turn), then
    `estimate_entropy(samples=...)` for every prefix cut of one n = 10
    sampled set. Groups and samples are built in set-up."""

    n_group = 300
    n_sampled = 10
    t = 2
    pool = 4  # groups, used in turn; restriction cost varies between groups
    delta = 0.125

    def setup(self, seed: int, workdir: Path, gen) -> None:
        rng = np.random.default_rng(seed)
        bigs = [
            gen(circuits.random_clifford_circuit, self.n_group, rng) for _ in range(self.pool)
        ]
        small = gen(circuits.random_clifford_t_circuit, self.n_sampled, self.t, rng)
        self.gates_big = [gate_list(c) for c in bigs]
        self.gates_small = gate_list(small)
        self.groups = [
            tableau.weyl_group_from_tableau(tableau.simulate_clifford(c)) for c in bigs
        ]
        eps = 1.0 / (8 * self.n_sampled)
        self.params = estimator.EstimatorParams(
            epsilon=eps, delta=self.delta, k=2 * self.t, seed=seed
        )
        dist = statevector.characteristic_distribution(statevector.simulate_circuit(small))
        count = estimator.required_sample_count(self.n_sampled, eps, self.delta)
        self.samples = statevector.bell_difference_sample_bits(dist, rng, count)
        self.cuts_big = [
            symplectic.Cut(self.n_group, frozenset(range(1, m + 1)))
            for m in range(1, self.n_group)
        ]
        self.cuts_small = [
            symplectic.Cut(self.n_sampled, frozenset(range(1, m + 1)))
            for m in range(1, self.n_sampled)
        ]
        self.exact_big: dict[int, np.ndarray] = {}
        self.exact_small = None

    def op(self, i: int):
        est = estimator.estimate_entropy
        group = self.groups[i % self.pool]
        big = [est(group=group, cut=c) for c in self.cuts_big]
        small = [est(samples=self.samples, cut=c, params=self.params) for c in self.cuts_small]
        return big, small

    def check(self, i: int, result) -> Verdict:
        j = i % self.pool
        if j not in self.exact_big:
            self.exact_big[j] = reference.stabilizer_prefix_entropies(
                self.n_group, self.gates_big[j]
            )
        if self.exact_small is None:
            psi = reference.dense_state(self.n_sampled, self.gates_small)
            self.exact_small = [
                reference.prefix_entropy(psi, m) for m in range(self.n_sampled + 1)
            ]
        big, small = result
        ok = len(big) == self.n_group - 1 and len(small) == self.n_sampled - 1
        intervals = []
        for m, rep in enumerate(big, start=1):
            exact = float(self.exact_big[j][m])
            ok &= rep.lower == rep.upper == exact and rep.dim_s == self.n_group
            intervals.append((rep.lower, rep.upper, covers(rep.lower, rep.upper, exact)))
        for m, rep in enumerate(small, start=1):
            side = min(m, self.n_sampled - m)
            ok &= sampled_interval_ok(rep.lower, rep.upper, 2 * self.t, side)
            ok &= not rep.promise_violated
            exact = self.exact_small[m]
            intervals.append((rep.lower, rep.upper, covers(rep.lower, rep.upper, exact)))
        return Verdict(bool(ok), intervals)


class DistinguishSmall:
    """`stabent distinguish --n 8 --t-prime 1 --trials 20 --seed s`.

    The CLI reports only the last trial's interval and not which ensemble
    that trial drew, so coverage here counts intervals that contain one of
    the two ensemble levels (n/2 for Bell pairs, 0 for the product states).
    """

    n = 8
    t_prime = 1
    trials = 20
    delta = 1.0 / 3.0  # the CLI default

    def setup(self, seed: int, workdir: Path, gen) -> None:
        self.seed = seed

    def op(self, i: int):
        return run_cli([
            "distinguish", "--n", str(self.n), "--t-prime", str(self.t_prime),
            "--trials", str(self.trials), "--seed", str(op_seed(self.seed, i)),
        ])

    def check(self, i: int, result) -> Verdict:
        rec = read_report(result)
        levels = (self.n / 2, 0.0)
        lo, hi = rec["lower"], rec["upper"]
        ok = (
            rec["trials"] == self.trials
            and math.isclose(rec["delta"], self.delta)
            and (rec["f_level"], rec["g_level"]) == levels
            and rec["success_rate"] >= 1.0 - self.delta
            and sampled_interval_ok(lo, hi, 2 * self.t_prime, self.n // 2)
        )
        return Verdict(ok, [(lo, hi, any(covers(lo, hi, v) for v in levels))])


WORKLOADS = {
    "tableau-clifford": TableauClifford,
    "dense-magic": DenseMagic,
    "cut-profile": CutProfile,
    "distinguish-small": DistinguishSmall,
}

"""Workloads of the qmonogamy benchmark: inputs made from the seed, and the check of every output.

A workload is a stream of rounds.  A round is the unit over which throughput
is taken, so every round of a workload has the same mix of ops.  An op is one
``qmonogamy.cli.main`` invocation or one ``convex_roof_optimize`` call.  Each
op carries what its check needs; ``check_cli`` and ``check_roof`` return an
error string for a failed op and None for a correct one.

This module never imports qmonogamy.  The parent process uses it to write the
state-file corpus before the workload process imports the package, and the
expected values below come from closed forms, not from the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

REPRODUCE_CHECKS = 42
CLOSED_FORM_ATOL = 1e-8
ORACLE_ATOL = 1e-3  # the bound of acceptance check 4
SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


@dataclass
class Op:
    tag: str
    argv: list | None = None  # cli.main arguments
    matrix: np.ndarray | None = None  # two-qubit mixture for convex_roof_optimize
    mode: str = ""
    rng_key: tuple = ()
    states: int = 0  # states the op evaluates
    pairs: int = 0  # (state, qubit pair) combinations among them
    out: str | None = None  # file the op writes
    entry: dict | None = None  # manifest entry of the state file the op checks


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _role(q: int) -> str:
    return "A" if q == 0 else "B" if q == 1 else f"C{q - 1}"


def slack_digest(min_slack: dict) -> str:
    """Digest of a fuzz min-slack table, slacks rounded to 9 significant digits."""
    table = {name: float(f"{row['slack']:.9g}") for name, row in min_slack.items()}
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()[:16]


# --- state-file corpus --------------------------------------------------------
# Each generator returns the amplitudes and the closed-form squared pair
# concurrence (and, where simple, squared assistance) keyed by role pair.

def _pair_table(n, csq, casq=None):
    return {
        f"{_role(i)}-{_role(j)}": [csq(i, j), None if casq is None else casq(i, j)]
        for i in range(n) for j in range(i + 1, n)
    }


def _wclass(n, rng):
    coeffs = np.sqrt(rng.dirichlet(np.ones(n))) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    amps = np.zeros(2**n, dtype=complex)
    for i, c in enumerate(coeffs):
        amps[1 << (n - 1 - i)] = c
    # weight-1 states: C^2 = Ca^2 = 4 |a_i a_j|^2
    sq = lambda i, j: 4 * abs(coeffs[i] * coeffs[j]) ** 2  # noqa: E731
    return amps, _pair_table(n, sq, sq)


def _ghz(n, rng):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1 / math.sqrt(2)
    amps[-1] = np.exp(1j * rng.uniform(0, 2 * np.pi)) / math.sqrt(2)
    # every pair marginal is (|00><00| + |11><11|)/2: C = 0, Ca = 1
    return amps, _pair_table(n, lambda i, j: 0.0, lambda i, j: 1.0)


def _bell(n, rng):
    # the Bell-pair placements of the paper's worked examples: A-C_{n-2}, A-C1, C1-C2
    a, b = [(0, n - 1), (0, 2), (2, 3)][rng.integers(3)]
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[(1 << (n - 1 - a)) | (1 << (n - 1 - b))] = 1 / math.sqrt(2)
    one = lambda i, j: float((i, j) == (a, b))  # noqa: E731
    return amps, _pair_table(n, one, one)


def _product(n, rng):
    amps = np.ones(1, dtype=complex)
    for _ in range(n):
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(amps, q / np.linalg.norm(q))
    return amps, _pair_table(n, lambda i, j: 0.0, lambda i, j: 0.0)


def _dicke(n, rng):
    k = int(rng.integers(2, n - 1))
    amps = np.zeros(2**n, dtype=complex)
    for ones in itertools.combinations(range(n), k):
        amps[sum(1 << (n - 1 - q) for q in ones)] = 1.0
    amps /= np.linalg.norm(amps)
    # X-shaped pair marginal: C = 2 max(0, p01 - sqrt(p00 p11))
    total = math.comb(n, k)
    p00, p01, p11 = (math.comb(n - 2, k - w) / total for w in (0, 1, 2))
    csq = (2 * max(0.0, p01 - math.sqrt(p00 * p11))) ** 2
    return amps, _pair_table(n, lambda i, j: csq)


GENERATORS = {"wclass": _wclass, "ghz": _ghz, "bell": _bell, "product": _product, "dicke": _dicke}

# (class, qubits, files per round).  Ops of similar cost form clusters:
# sorted by latency, the 31 ops of a round are 13 ops at n <= 8 (10-40 ms),
# then the non-weight-1 files at n = 10 with W at n = 6 (45-60 ms, ranks
# 13-17, so p50 = rank 15 is their middle), the other n = 12 files
# (65-90 ms), W at 8, the six W files at n = 10 (250-275 ms, ranks 24-29,
# holding p85, p90 and p95) and W at 12.  Costs measured at the seed commit
# on a 2-CPU Xeon; product states at n = 12 appear twice, at n = 4 never, to
# put p50 mid-cluster.
CORPUS = [(kind, n, 1) for kind in ("ghz", "bell", "dicke") for n in (4, 6, 8, 10, 12)]
CORPUS += [("product", 6, 1), ("product", 8, 1), ("product", 10, 1), ("product", 12, 2)]
CORPUS += [("wclass", 4, 1), ("wclass", 6, 1), ("wclass", 8, 1), ("wclass", 10, 6), ("wclass", 12, 1)]


def state_text(amps: np.ndarray) -> str:
    """The state-file format of qmonogamy.statefile, written independently of it."""
    n = int(len(amps)).bit_length() - 1
    rows = ",\n".join(f"    [{a.real:.17g}, {a.imag:.17g}]" for a in amps)
    return f'{{\n  "n_qubits": {n},\n  "amplitudes": [\n{rows}\n  ]\n}}\n'


def write_corpus(seed: int, directory: str) -> list:
    """Write the corpus of one round and return its manifest."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([seed, 0xC0])
    manifest = []
    for kind, n, copies in CORPUS:
        for copy in range(copies):
            amps, expect = GENERATORS[kind](n, rng)
            path = os.path.join(directory, f"{kind}-{n}-{copy}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(state_text(amps))
            manifest.append({"path": path, "kind": kind, "n": n, "expect": expect})
    amps, expect = _ghz(4, np.random.default_rng(0))
    path = os.path.join(directory, "warmup.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_text(amps))
    manifest.append({"path": path, "kind": "warmup", "n": 4, "expect": expect})
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest


# --- workloads -----------------------------------------------------------------

class FuzzSmall:
    """Repeated ``qmonogamy fuzz --qubits 4 --count k`` on Haar states.

    Ops that all do the same work would make p90 a reading of the machine's
    noise alone, so every fifth call checks four times as many states: p50
    falls inside the short calls and p90 inside the long ones.
    """

    qubits = 4
    counts = (10, 10, 10, 10, 40) * 2
    round_size = len(counts)
    trace_rounds = 1
    # the min-slack table of `fuzz --qubits 4 --count 1 --seed 0`
    warmup_digest = "b1e431376410088b"

    def prepare(self, seed, out_dir):
        pass

    def _op(self, count, fuzz_seed, out_dir, tag="fuzz"):
        out = os.path.join(out_dir, "fuzz.json")
        argv = ["fuzz", "--qubits", str(self.qubits), "--count", str(count), "--seed", str(fuzz_seed), "--out", out]
        return Op(tag, argv=argv, states=count, pairs=count * _pairs(self.qubits), out=out)

    def warmup(self, out_dir):
        # fixed fuzz seed, so its min-slack table is pinned by warmup_digest
        return self._op(1, 0, out_dir, tag="warmup")

    def rounds(self, seed, out_dir):
        for r in itertools.count():
            yield [self._op(count, seed * 1_000_000 + r * self.round_size + i + 1, out_dir)
                   for i, count in enumerate(self.counts)]


class CheckStructured:
    """``qmonogamy check FILE --out REPORT`` over a fixed corpus, plus one ``reproduce-paper`` per round."""

    round_size = sum(c for _, _, c in CORPUS) + 1
    trace_rounds = 1

    def prepare(self, seed, out_dir):
        write_corpus(seed, os.path.join(out_dir, "corpus"))

    def _manifest(self, out_dir):
        with open(os.path.join(out_dir, "corpus", "manifest.json"), encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def check_op(entry, out_dir, tag=None):
        out = os.path.join(out_dir, "report.json")
        n = entry["n"]
        return Op(tag or f"{entry['kind']}-{n}", argv=["check", entry["path"], "--out", out],
                  states=1, pairs=_pairs(n), out=out, entry=entry)

    def warmup(self, out_dir):
        entry = self._manifest(out_dir)[-1]
        return self.check_op(entry, out_dir, tag="warmup")

    def rounds(self, seed, out_dir):
        files = self._manifest(out_dir)[:-1]
        paper_out = os.path.join(out_dir, "paper.json")
        ops = [self.check_op(entry, out_dir) for entry in files]
        ops.append(Op("reproduce-paper", argv=["reproduce-paper", "--out", paper_out], out=paper_out))
        for r in itertools.count():
            order = np.random.default_rng([seed, r]).permutation(len(ops))
            yield [ops[k] for k in order]


def random_mixture(rank: int, rng) -> np.ndarray:
    """Random two-qubit density matrix of the given rank, built as acceptance check 4 builds them."""
    m = np.zeros((4, 4), dtype=complex)
    for _ in range(rank):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m += rng.uniform(0.2, 1.0) * np.outer(v, v.conj())
    return m / np.trace(m).real


def _haar_unitary_2(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


PANEL_SEED = 20240814  # the seed of acceptance check 4
PANEL_SIZE = 2  # mixtures per rank


class RoofOracle:
    """``convex_roof_optimize`` with default settings on mixtures of rank 2, 3 and 4.

    One call costs 0.1-1 s depending on the mixture, so with fresh random
    mixtures per seed the medians of a run moved by 15-19% between seeds.
    The mixtures therefore come from a fixed panel, PANEL_SIZE per rank,
    built as acceptance check 4 builds them, and every round runs the whole
    panel.  The seed draws the local unitaries U_A x U_B applied to each
    mixture and the optimizer's restarts.  Local unitaries keep the lambda
    spectrum, so each run poses problems of the same difficulty in new
    coordinates.

    Each mixture is minimized and maximized in one frame and maximized again
    in a second.  Maximize calls and rank-2 minimize calls take 0.1-0.25 s,
    the other minimize calls 0.35-0.85 s.  With equal counts p50 fell on the
    gap between the two; at two maximize calls per minimize call p50 lies
    inside the fast cluster and p90 inside the slow one.
    """

    round_size = 9 * PANEL_SIZE
    trace_rounds = 1

    def prepare(self, seed, out_dir):
        pass

    def warmup(self, out_dir):
        return Op("warmup", matrix=random_mixture(2, np.random.default_rng(0)), mode="maximize", rng_key=(0,))

    def rounds(self, seed, out_dir):
        panel = [(rank, k, random_mixture(rank, np.random.default_rng([PANEL_SEED, rank, k])))
                 for k in range(PANEL_SIZE) for rank in (2, 3, 4)]
        for r in itertools.count():
            ops = []
            for rank, k, core in panel:
                rng = np.random.default_rng([seed, r, rank, k])
                for modes in (("minimize", "maximize"), ("maximize",)):
                    u = np.kron(_haar_unitary_2(rng), _haar_unitary_2(rng))
                    matrix = u @ core @ u.conj().T
                    matrix = (matrix + matrix.conj().T) / 2
                    for mode in modes:
                        ops.append(Op(f"{mode}.rank{rank}", matrix=matrix, mode=mode,
                                      rng_key=(seed, r, len(ops)), states=int(mode == modes[0])))
            yield ops


WORKLOADS = {
    "fuzz-small": FuzzSmall(),
    "check-structured": CheckStructured(),
    "roof-oracle": RoofOracle(),
}


# --- checks --------------------------------------------------------------------

def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_cli(op: Op, rc: int, stdout: str, err: str):
    """Error text when a cli op's exit code or output is wrong, else None; also the fuzz digest."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}", None
    command = op.argv[0]
    if command == "fuzz":
        doc = _load(op.out)
        if doc["violations"] != 0 or not all(row["satisfied"] for row in doc["min_slack"].values()):
            return "fuzz reported a bound violation", None
        return None, slack_digest(doc["min_slack"])
    if command == "reproduce-paper":
        doc = _load(op.out)
        total = len(doc["checks"])
        passed = total - doc["failures"]
        if not (passed == total == REPRODUCE_CHECKS and f"{passed}/{total} checks passed" in stdout):
            return f"reproduce-paper passed {passed}/{total}, expected {REPRODUCE_CHECKS}", None
        return None, None
    doc = _load(op.out)
    names = {e["inequality"] for e in doc["entries"]}
    if not all(e["satisfied"] for e in doc["entries"]):
        return "check reported a bound violation", None
    if op.entry["kind"] == "wclass" and "wclass_upper" not in names:
        return "weight-1 state skipped the W-class bounds", None
    for pair, (csq, casq) in op.entry["expect"].items():
        got = doc["components"][pair]
        if abs(got["concurrence_sq"] - csq) > CLOSED_FORM_ATOL or (
                casq is not None and abs(got["assistance_sq"] - casq) > CLOSED_FORM_ATOL):
            return f"{op.tag} pair {pair}: {got} against closed form ({csq}, {casq})", None
    return None, None


def closed_form_lambdas(m: np.ndarray) -> np.ndarray:
    """Wootters' lambda spectrum: square roots of the eigenvalues of sqrt(rho) rho~ sqrt(rho)."""
    w, u = np.linalg.eigh(m)
    root = (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T
    flipped = SIGMA_YY @ m.conj() @ SIGMA_YY
    ev = np.linalg.eigvalsh(root @ flipped @ root)
    return np.sort(np.sqrt(np.clip(ev, 0, None)))[::-1]


def roof_error(op: Op, value: float) -> float:
    lam = closed_form_lambdas(op.matrix)
    exact = max(0.0, lam[0] - lam[1:].sum()) if op.mode == "minimize" else lam.sum()
    return abs(value - exact)


def check_roof(op: Op, value: float):
    err = roof_error(op, value)
    if not err <= ORACLE_ATOL:
        return f"{op.tag}: optimizer off the closed form by {err:.3e}"
    return None

"""The benchmark's workloads: CLI arguments, seeded inputs and output gates.

Each workload is one ``fockforms`` command.  Seed 0 runs the committed
fixture verbatim.  Any other seed hands the theta workloads the same lattice
in a random unimodular basis, written to a JSON file.  ``verify`` reads no
input, so the seed cannot change it.

The gate has two parts.  The oracles check values that no basis change can
alter: representation counts, which depend only on the index matrix beta,
and payloads that vanish.  The stdout sha256 recorded at seed 0 must match
at every seed too: the seeded bases are signed permutations (see
random_basis), and every value these workloads print is invariant under them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# sha256 of the CLI's stdout; it must match at every seed (see random_basis)
DIGESTS = {
    "verify_grid": "a833be960eafeaca62978a3c6b90eacc9607d756a767695d73d11f5f287bf7be",
    "theta_e8_l4": "756c101fed6859ec560ccedb3e87e37040c3678c246e2382c0a19d9de63d52cb",
    "theta_e7_g2": "f5ab4982abf309f0b892e900b7114d06de2a89bba145708efe4f36bdde61b908",
    "theta_z4_l22": "915860b7b4b4cce2cb69126dcbbbcd61732b83f2e830a740e95196ae00908763",
}

# E8 shell sizes: 240 * sigma_3(k)
E8_COUNTS = [1, 240, 2160, 6720]
# E7 genus 2, bound 1, in the CLI's trace-then-entries order.  A root of E7
# has 32 roots at inner product 1 (2h - 4 with Coxeter number h = 18), 32 at
# -1 and 60 orthogonal to it, out of 126.
E7_G2_COUNTS = [1, 126, 126, 126, 126 * 32, 126 * 60, 126 * 32, 126]
# z4 genus 2, bound 1: pairs of vectors of norm 0 or 2, so (1 + r_4(2))^2 in all
R4_2 = 24
Z4_G2_TOTAL = (1 + R4_2) ** 2


def e7_gram():
    """Cartan matrix of E7: the chain 1-3-4-5-6-7 with node 2 on node 4."""
    gram = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
    for a, b in ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)):
        gram[a][b] = gram[b][a] = -1
    return gram


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple                  # CLI arguments; "{lattice}" marks the lattice file
    fixture: str | None = None   # lattice JSON in the checkout
    gram: tuple | None = None    # or a generated gram

    def argv(self, lattice):
        return [a.format(lattice=lattice) for a in self.args] + ["--jobs", "1"]


WORKLOADS = {
    w.name: w for w in (
        Workload("verify_grid", ("verify",)),
        Workload("theta_e8_l4", ("theta", "--lattice", "{lattice}", "--lambda", "4",
                                 "--bound", "3"),
                 fixture="tests/fixtures/e8.json"),
        Workload("theta_e7_g2", ("theta", "--lattice", "{lattice}", "--genus", "2",
                                 "--bound", "1"),
                 gram=tuple(map(tuple, e7_gram()))),
        Workload("theta_z4_l22", ("theta", "--lattice", "{lattice}", "--genus", "2",
                                  "--lambda", "2,2", "--bound", "1"),
                 fixture="tests/fixtures/z4.json"),
    )
}


# -- seeded inputs ------------------------------------------------------------

def random_basis(gram, rng):
    """U G U^T for a random signed permutation U.

    U is a product of elementary moves that swap two basis vectors or negate
    one, so it is unimodular and the lattice, with all its counts, is
    unchanged.  Moves that add one basis vector to another are left out on
    purpose: a single one doubled the run time of the z4 genus-2 payload
    command at --bound 2 (the projector's matrices fill in once the gram is
    no longer diagonal), so the seed, not the code, would decide the timings.
    """
    m = len(gram)
    perm = list(range(m))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(m)]
    return [[sign[i] * sign[j] * gram[perm[i]][perm[j]] for j in range(m)] for i in range(m)]


def lattice_for_seed(gram, seed):
    """The lattice document for `seed`: the integral gram itself at seed 0."""
    gram = [[int(v) for v in row] for row in gram]
    if seed != 0:
        gram = random_basis(gram, random.Random(seed))
    return {"gram": gram}


# -- output gates ---------------------------------------------------------------

def _counts(doc):
    return [row["count"] for row in doc["rows"]]


def _nonempty_payloads(doc):
    return sum(1 for row in doc["rows"] for terms in row["payload"].values() if terms)


def _oracle_verify(doc):
    problems = []
    if doc.get("cells") != 188 or len(doc.get("reports", ())) != 188:
        problems.append(f"expected 188 cells, got {doc.get('cells')}")
    failed = [r for r in doc.get("reports", ()) if r.get("passed") is not True]
    if failed or doc.get("passed") is not True:
        problems.append(f"{len(failed)} cells did not pass")
    return problems


def _oracle_e8_l4(doc):
    problems = []
    if _counts(doc) != E8_COUNTS:
        problems.append(f"E8 shell counts {_counts(doc)} != {E8_COUNTS}")
    if _nonempty_payloads(doc) or any(list(r["payload"]) != ["1,1,1,1"] for r in doc["rows"]):
        problems.append("E8 lambda=(4) payloads must all be present and empty")
    return problems


def _oracle_e7_g2(doc):
    if _counts(doc) != E7_G2_COUNTS:
        return [f"E7 genus-2 counts {_counts(doc)} != {E7_G2_COUNTS}"]
    return []


def _oracle_z4_l22(doc):
    problems = []
    if sum(_counts(doc)) != Z4_G2_TOTAL:
        problems.append(f"z4 genus-2 count total {sum(_counts(doc))} != {Z4_G2_TOTAL}")
    axis = [row["count"] for row in doc["rows"]
            if row["beta"][0][1] == 0 and 0 in (row["beta"][0][0], row["beta"][1][1])
            and row["beta"] != [[0, 0], [0, 0]]]
    if len(axis) != 2 or any(c != R4_2 for c in axis):
        problems.append(f"diag(1,0) and diag(0,1) counts {axis} != r_4(2) = {R4_2}")
    if _nonempty_payloads(doc):
        problems.append("z4 lambda=(2,2) payloads must stay empty")
    return problems


ORACLES = {
    "verify_grid": _oracle_verify,
    "theta_e8_l4": _oracle_e8_l4,
    "theta_e7_g2": _oracle_e7_g2,
    "theta_z4_l22": _oracle_z4_l22,
}


def check_output(name, stdout):
    """Problems found in one run's stdout (bytes); empty when it passes."""
    problems = []
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != DIGESTS[name]:
        problems.append(f"stdout sha256 {digest[:16]}... differs from the recorded digest")
    try:
        doc = json.loads(stdout)
        problems += ORACLES[name](doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"output is not the expected JSON document: {exc!r}")
    return problems

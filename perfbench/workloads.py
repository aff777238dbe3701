"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload builds its inputs from the seed alone, runs one operation per
input, and checks every output with a test that does not rest on the code
path being timed: committed goldens, a closed form, planted answers, and
membership confirmed by a second function.  ``run`` is the timed part;
``check`` runs outside the timed region and returns an error text or None.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import subprocess
import sys
import time
from math import comb

from gbtc import discrete_config, free_groups
from gbtc.free_groups import FreeWord
from gbtc.graph_core import graph_from_data

from checkout import ROOT, child_env

DATA = "src/gbtc/data"
GOLDENS_PATH = ROOT / "perfbench" / "goldens.json"


@functools.cache
def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text("utf-8"))


def load_graph_data(name: str):
    return graph_from_data(json.loads((ROOT / DATA / f"{name}.json").read_text("utf-8")))


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

# Stars (star3, star5), separating trivalent vertices (hgraph, spider), the
# non-separating theta graph and the mixed random10, up to 170k cells.  The
# cases fall into three size classes, so that the median and the tail
# percentile each land inside one class's pooled samples, whatever the number
# of passes: two light ones (under 0.1 s), three middle ones (0.15 to 0.2 s,
# where the median falls) and two heavy ones (about 2 s each, where the tail
# falls once a run has six passes, which MIN_SAMPLES in worker.py makes sure
# of).  A case between the classes, such as theta k=5 (1.4 s) or star4 k=4
# (0.65 s), would put the median or the tail on the edge between two cases,
# and it would jump between them from run to run.
HOMOLOGY_CASES = (
    ("hgraph", 3),
    ("theta", 4),
    ("star3", 4),
    ("random10", 3),
    ("spider", 3),
    ("hgraph", 4),
    ("star5", 4),
)


def gal_euler_characteristic(g, k: int) -> int:
    """chi(UConf_k) from valences alone: the t^k coefficient of
    prod_v (1 + (1 - val v) t) * (1 - t)^(-|E|) (Gal, Colloq. Math. 89, 2001)."""
    val = {v: 0 for v in g.vertices}
    for u, w in g.edges:
        val[u] += 1
        val[w] += 1
    poly = [1]
    for v in g.vertices:
        c = 1 - val[v]
        poly = [a + c * b for a, b in zip(poly + [0], [0] + poly)]
    e = len(g.edges)

    def series(n: int) -> int:  # [t^n] (1 - t)^(-e)
        return comb(e + n - 1, n) if e else int(n == 0)

    return sum(poly[j] * series(k - j) for j in range(min(k, len(poly) - 1) + 1))


def essential_vertices(g) -> int:
    val = {v: 0 for v in g.vertices}
    for u, w in g.edges:
        val[u] += 1
        val[w] += 1
    return sum(1 for d in val.values() if d >= 3)


class Homology:
    """Betti numbers of the discretized configuration complex: the one
    heavy path, almost all of it in ``discrete_config``."""

    def inputs(self, seed: int) -> list:
        cases = [(name, k, load_graph_data(name)) for name, k in HOMOLOGY_CASES]
        random.Random(seed).shuffle(cases)
        return cases

    def run(self, item):
        _, k, g = item
        return discrete_config.nonvanishing_check(g, k)

    def check(self, item, rep) -> str | None:
        name, k, _ = item
        label = f"{name} k={k}"
        want = goldens()["homology"][label]
        if rep.betti is not None and list(rep.betti.betti) != want:
            return f"{label}: betti {list(rep.betti.betti)} != golden {want}"
        return self.verify(item, rep)

    def verify(self, item, rep) -> str | None:
        """The checks that need no golden: status, Gal's formula, and a
        nonzero Betti number in degree min(k // 2, m)."""
        name, k, g = item
        label = f"{name} k={k}"
        if rep.status != "verified" or rep.betti is None:
            return f"{label}: status {rep.status}"
        chi = sum((-1) ** d * b for d, b in enumerate(rep.betti.betti))
        gal = gal_euler_characteristic(g, k)
        if chi != gal:
            return f"{label}: euler characteristic {chi} != Gal's formula {gal}"
        degree = min(k // 2, essential_vertices(g))
        if rep.degree != degree or not rep.nonzero or rep.betti[degree] == 0:
            return f"{label}: no nonzero Betti number in degree {degree}"
        return None


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------

FOLD_RANK = 4
FOLD_SPLIT = 2
FOLD_PAIRS = 16
FOLD_GENS = 4
FOLD_IMAGE_LEN = 90  # each generator's image reaches this length: cores of ~380 states
FOLD_SWEEPS = 2
FOLD_DENSITY = (0.27, 0.31)  # edge density band of a pair (see _edge_density), else it is redrawn


def _reduce(letters) -> list[int]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _image(images: list[list[int]], x: int) -> list[int]:
    w = images[abs(x) - 1]
    return w if x > 0 else [-y for y in reversed(w)]


def _word_reaching(rng, pool: list[int], images, target: int) -> tuple[list[int], list[int]]:
    """A random reduced word over ``pool`` grown until its image has at
    least ``target`` letters, so the work per pair barely depends on the
    seed; returns the word and its image."""
    word: list[int] = []
    image: list[int] = []
    while len(image) < target:
        x = rng.choice(pool)
        if word and x == -word[-1]:
            continue
        word.append(x)
        image = _reduce(image + _image(images, x))
    return word, image


def _fold_pair(rng, disjoint: bool) -> tuple[list[FreeWord], list[FreeWord]]:
    r, j = FOLD_RANK, FOLD_SPLIT
    pool0 = [s * i for i in range(1, j + 1) for s in (1, -1)]
    pool1 = [s * i for i in range(j + 1, r + 1) for s in (1, -1)]
    # An automorphism phi keeps both answers: a product of Nielsen moves
    # x_i -> x_i x_k^e or x_k^e x_i sweeping every generator.
    images = [[i] for i in range(1, r + 1)]
    for step in range(FOLD_SWEEPS * r):
        i = step % r
        k = rng.choice([q for q in range(r) if q != i])
        m = _image(images, rng.choice((1, -1)) * (k + 1))
        images[i] = _reduce(images[i] + m if rng.random() < 0.5 else m + images[i])
    h0 = [_word_reaching(rng, pool0, images, FOLD_IMAGE_LEN) for _ in range(FOLD_GENS)]
    h1 = [_word_reaching(rng, pool1, images, FOLD_IMAGE_LEN) for _ in range(FOLD_GENS)]
    w0 = [FreeWord(r, tuple(im)) for _, im in h0]
    w1 = [FreeWord(r, tuple(im)) for _, im in h1]
    # Subgroups of complementary free factors have disjoint conjugates;
    # adding a conjugate g h g^-1 of a generator h of H0 to H1 makes the
    # answer "not disjoint".  A "disjoint" pair gets a fifth H1 word as long
    # as that conjugate instead, so both kinds of pair cost alike and the
    # median does not fall between a cheap kind and a dear one.
    g, _ = _word_reaching(rng, pool0 + pool1, images, FOLD_IMAGE_LEN // 4)
    h = h0[rng.randrange(FOLD_GENS)][0]
    conj = _reduce(g + h + [-x for x in reversed(g)])
    extra = _reduce([y for x in conj for y in _image(images, x)])
    if disjoint:
        _, extra = _word_reaching(rng, pool1, images, len(extra))
    w1.append(FreeWord(r, tuple(extra)))
    return w0, w1


def _edge_density(w0: list[FreeWord], w1: list[FreeWord]) -> float:
    """Edges over nodes of the fiber product of the two bouquets of words:
    the share of letter pairs, one from each side, on the same generator.
    The pullback's cost follows its edge count, which this predicts
    without calling gbtc."""
    c0, c1 = [0] * (FOLD_RANK + 1), [0] * (FOLD_RANK + 1)
    for words, counts in ((w0, c0), (w1, c1)):
        for w in words:
            for x in w.letters:
                counts[abs(x)] += 1
    return sum(a * b for a, b in zip(c0, c1)) / (sum(c0) * sum(c1))


class Fold:
    """Large cores decided by stallings_core + pullback + is_forest, no
    oracle: building big automata and fiber products."""

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        pairs = []
        for p in range(FOLD_PAIRS):
            disjoint = p % 2 == 0
            while True:
                w0, w1 = _fold_pair(rng, disjoint)
                if FOLD_DENSITY[0] <= _edge_density(w0, w1) <= FOLD_DENSITY[1]:
                    break
            pairs.append((w0, w1, disjoint))
        rng.shuffle(pairs)
        return pairs

    def run(self, item):
        w0, w1, _ = item
        a = free_groups.stallings_core(FOLD_RANK, w0)
        b = free_groups.stallings_core(FOLD_RANK, w1)
        return free_groups.is_forest(free_groups.pullback(a, b)), a, b

    def check(self, item, out) -> str | None:
        w0, w1, disjoint = item
        decided, a, b = out
        if decided is not disjoint:
            return f"fold pair decided {decided}, planted {disjoint}"
        if not all(free_groups.contains(a, w) for w in w0) or not all(
            free_groups.contains(b, w) for w in w1
        ):
            return "a core rejects one of its own generators"
        return None


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

GRAPHS = ("hgraph", "random10", "spider", "star3", "star4", "star5", "theta")
BOUND_GRAPHS = ("hgraph", "random10", "spider", "theta")  # m >= 2: bound applies
CLI_FIXED = (
    ("corpus",),
    ("verify-lemmas", "--n", "6"),
    ("lambda", f"{DATA}/star5.json", "--vertex", "c", "--k", "12"),
    ("homology", f"{DATA}/theta.json", "--k", "3"),
)
# Engine-dependent fields left out of the byte comparison: the cell counts
# describe the complex an engine builds, not the answer.
CLI_VOLATILE = {"homology": ("cell_counts",)}


def cli_universe() -> list[tuple[str, ...]]:
    """Every command the cli workload can draw, one golden each."""
    out = [("classify", f"{DATA}/{g}.json") for g in GRAPHS]
    out += [("stable", f"{DATA}/{g}.json", "--r", str(r)) for g in BOUND_GRAPHS for r in (2, 3)]
    out += [
        ("bound", f"{DATA}/{g}.json", "--r", str(r), "--k", str(k))
        for g in BOUND_GRAPHS
        for r in (2, 3)
        for k in (4, 6)
    ]
    return out + list(CLI_FIXED)


def cli_digest(argv, stdout: bytes) -> tuple[int, str]:
    body = stdout
    drop = CLI_VOLATILE.get(argv[0])
    if drop:
        obj = {key: v for key, v in json.loads(stdout).items() if key not in drop}
        body = (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    return len(body), hashlib.sha256(body).hexdigest()


def run_cli(argv, cmd_prefix) -> tuple[int, bytes, bytes]:
    with subprocess.Popen(
        [*cmd_prefix, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return proc.returncode, out, err


class Cli:
    """A fixed mix of fresh ``python -m gbtc.cli`` processes, one at a time:
    what a user waits for on each cheap query."""

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        g0, g1, g2 = rng.choice(GRAPHS), rng.choice(BOUND_GRAPHS), rng.choice(BOUND_GRAPHS)
        mix = [
            ("classify", f"{DATA}/{g0}.json"),
            ("stable", f"{DATA}/{g1}.json", "--r", str(rng.choice((2, 3)))),
            ("bound", f"{DATA}/{g2}.json", "--r", str(rng.choice((2, 3))), "--k", str(rng.choice((4, 6)))),
            *CLI_FIXED,
        ]
        rng.shuffle(mix)
        return mix

    def run(self, argv):
        return run_cli(argv, (sys.executable, "-m", "gbtc.cli"))

    def run_traced(self, argv, tracer):
        shim = str(ROOT / "perfbench" / "cli_traced.py")
        code, out, err = run_cli(argv, (sys.executable, shim, str(time.perf_counter_ns())))
        err, _, last = err.rstrip(b"\n").rpartition(b"\n")
        trace = json.loads(last)
        tracer.add(trace["spans"], trace["counts"], tracer.op)
        tracer.counts["cli.stdout_bytes"] += len(out)
        return code, out, err

    def check(self, argv, out) -> str | None:
        code, stdout, stderr = out
        key = " ".join(argv)
        if code != 0:
            return f"{key}: exit {code}: {stderr.decode(errors='replace').strip()[-200:]}"
        size, digest = cli_digest(argv, stdout)
        want = goldens()["cli"][key]
        if size != want["bytes"] or digest != want["sha256"]:
            return f"{key}: stdout differs from golden ({size} bytes)"
        return None


WORKLOADS = {"homology": Homology(), "fold": Fold(), "cli": Cli()}

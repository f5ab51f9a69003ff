"""Seeded request streams for the three workloads.

Everything here runs before a timed phase starts: the benchmark hands
the service only these generated requests.  The same seed always yields
the same requests in the same order.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.apps import ALL_APPS
from repro.difftest import ProgramGenerator, load_corpus
from repro.difftest.generator import build_program
from repro.service.api import CompileRequest, request_for_program

#: Read-only: the checked-in difftest corpus (20 curated programs).
CORPUS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "integration", "corpus", "seed_corpus.json",
)

#: Size parameters at or below this stay at the app default: they are
#: iteration indices or flags (``T=0``), not domain extents.
_MIN_SCALED_PARAM = 16

#: cold-compile: generated programs per round, by maximum nest depth.
#: Fixed per round so every run sees the same depth mix and the p95
#: tail (deep searches) is drawn from the same population.
GENERATED_DEPTHS_PER_ROUND = (1, 1, 2, 2, 3)
#: Every this many rounds one generated depth-4 nest joins the round.
#: Depth-4 compiles take 0.4-1.7 s.  Together with the corpus's one
#: depth-4 program and the slower half of the depth-3 ones they make up
#: about 3% of requests, which puts the p95 in the middle of the dense
#: band of msmbuilder compiles (about 4% of requests) instead of on the
#: edge of a sparse group.
DEPTH4_EVERY_ROUNDS = 12
#: cold-compile: corpus programs per round (the corpus is cycled).
CORPUS_PER_ROUND = 4

#: warm-serve / mixed-fleet hot set: sizes per app.
HOT_SIZES_PER_APP = 3
#: Fixes the hot set's popularity order (see :func:`hot_set`).
HOT_RANK_SEED = 2014
#: mixed-fleet: share of requests drawing a new digest from the pool.
NEW_DIGEST_SHARE = 0.10


def scaled_params(app, factor: float) -> Dict[str, int]:
    """The app's default sizes with every extent scaled by ``factor``."""
    return {
        key: (
            max(_MIN_SCALED_PARAM, int(round(value * factor)))
            if value > _MIN_SCALED_PARAM
            else value
        )
        for key, value in app.default_params.items()
    }


def _ir_request(program, rng: np.random.Generator) -> CompileRequest:
    """An IR request binding every declared size to a seeded extent,
    log-uniform in [256, 1024]."""
    sizes = {
        name: int(round(2.0 ** rng.uniform(8.0, 10.0)))
        for name in sorted(program.size_hints)
    }
    return request_for_program(program, sizes=sizes)


def _max_depth(spec) -> int:
    if spec.kind == "nest":
        return len(spec.levels)
    if spec.kind == "foreach":
        return spec.foreach.depth
    return 1


class _DigestSet:
    """De-duplicates requests by compile digest."""

    def __init__(self, taken: Optional[Set[str]] = None) -> None:
        self.seen: Set[str] = set(taken or ())

    def add(self, request: CompileRequest) -> bool:
        digest = request.digest()
        if digest in self.seen:
            return False
        self.seen.add(digest)
        return True


def cold_compile_requests(
    seed: int, count: int
) -> List[Tuple[str, CompileRequest]]:
    """``count`` distinct ``(source, request)`` pairs, in rounds.

    A round holds every paper app once (seeded order and sizes),
    ``CORPUS_PER_ROUND`` corpus programs (the corpus is walked in a
    seeded cyclic order) and generated programs of a fixed depth mix.
    Any prefix of the stream therefore has nearly the same composition,
    so the requests a run gets through in its time budget are
    comparable across seeds.
    """
    rng = np.random.default_rng(seed)
    generator = ProgramGenerator(seed=seed)
    corpus = load_corpus(CORPUS_PATH)
    corpus_order = [corpus[i] for i in rng.permutation(len(corpus))]
    app_names = sorted(ALL_APPS)
    pending_specs: Dict[int, List] = {}

    def generated(depth: int):
        while not pending_specs.get(depth):
            spec = generator.random_spec()
            pending_specs.setdefault(_max_depth(spec), []).append(spec)
        return pending_specs[depth].pop(0)

    digests = _DigestSet()
    out: List[Tuple[str, CompileRequest]] = []
    corpus_index = 0
    round_index = 0
    while len(out) < count:
        batch: List[Tuple[str, CompileRequest]] = []
        for i in rng.permutation(len(app_names)):
            app = ALL_APPS[app_names[i]]
            factor = float(2.0 ** rng.uniform(-0.5, 0.5))
            batch.append((
                "app",
                CompileRequest(app=app.name, sizes=scaled_params(app, factor)),
            ))
        for _ in range(CORPUS_PER_ROUND):
            spec = corpus_order[corpus_index % len(corpus_order)]
            corpus_index += 1
            batch.append(("corpus", _ir_request(build_program(spec), rng)))
        depths = list(GENERATED_DEPTHS_PER_ROUND)
        if round_index % DEPTH4_EVERY_ROUNDS == DEPTH4_EVERY_ROUNDS - 1:
            depths.append(4)
        for depth in depths:
            batch.append(("generated", _ir_request(
                build_program(generated(depth)), rng
            )))
        order = rng.permutation(len(batch))
        for i in order:
            if digests.add(batch[i][1]):
                out.append(batch[i])
        round_index += 1
    return out[:count]


def warmup_requests() -> List[CompileRequest]:
    """Programs compiled before timing starts: a paper app at its
    default sizes and the first corpus program at its declared sizes."""
    program = build_program(load_corpus(CORPUS_PATH)[0])
    return [
        CompileRequest(app="sumRows"),
        request_for_program(program, sizes=dict(program.size_hints)),
    ]


def hot_set(seed: int) -> List[CompileRequest]:
    """The warm working set: every app at ``HOT_SIZES_PER_APP`` sizes.

    Sizes are the defaults scaled by ``2**u`` with ``u`` uniform in
    [-0.5, 0.5], distinct per app.  The list order fixes each entry's
    Zipf rank; it is the same for every seed (a fixed shuffle of the
    app/size slots), so the most popular programs do not change with
    the seed, only their sizes and the draw sequence do.
    """
    rng = np.random.default_rng([seed, 1])
    digests = _DigestSet()
    out: List[CompileRequest] = []
    for name in sorted(ALL_APPS):
        app = ALL_APPS[name]
        kept = 0
        while kept < HOT_SIZES_PER_APP:
            factor = float(2.0 ** rng.uniform(-0.5, 0.5))
            request = CompileRequest(
                app=app.name, sizes=scaled_params(app, factor)
            )
            if digests.add(request):
                out.append(request)
                kept += 1
    ranks = np.random.default_rng(HOT_RANK_SEED).permutation(len(out))
    return [out[i] for i in ranks]


def zipf_ranks(
    rng: np.random.Generator, population: int, count: int
) -> np.ndarray:
    """``count`` draws of a rank in ``[0, population)`` with weight
    ``1/(rank+1)`` (Zipf, exponent 1)."""
    weights = 1.0 / np.arange(1, population + 1)
    return rng.choice(population, size=count, p=weights / weights.sum())


def new_digest_pool(
    seed: int, count: int, taken: Sequence[CompileRequest]
) -> List[CompileRequest]:
    """Paper apps at fresh sizes, none in ``taken``.

    The pool walks the apps in seeded blocks that hold each app once, so
    any prefix has the same app mix.  Apps whose main nest is three or
    more levels deep are left out: deep searches belong to cold-compile,
    and keeping misses cheap keeps the mixed workload's latency steady.
    """
    rng = np.random.default_rng([seed, 2])
    digests = _DigestSet(request.digest() for request in taken)
    shallow = [ALL_APPS[n] for n in sorted(ALL_APPS) if ALL_APPS[n].levels < 3]
    out: List[CompileRequest] = []
    while len(out) < count:
        for i in rng.permutation(len(shallow)):
            app = shallow[i]
            factor = float(2.0 ** rng.uniform(-1.0, 1.0))
            request = CompileRequest(
                app=app.name, sizes=scaled_params(app, factor)
            )
            if digests.add(request):
                out.append(request)
    return out[:count]


def client_plan(
    seed: int, client: int, count: int, population: int, mixed: bool
) -> List[Tuple[str, int]]:
    """One client's request sequence: ``("hot", rank)`` Zipf draws, and
    with ``mixed`` about ``NEW_DIGEST_SHARE`` of ``("new", k)`` steps,
    where ``k`` counts this client's new-digest steps so far.  Every
    client walks the shared new-digest pool in the same order."""
    rng = np.random.default_rng([seed, 3, client])
    ranks = zipf_ranks(rng, population, count)
    new = (
        rng.random(count) < NEW_DIGEST_SHARE
        if mixed
        else np.zeros(count, dtype=bool)
    )
    plan: List[Tuple[str, int]] = []
    walked = 0
    for rank, is_new in zip(ranks, new):
        if is_new:
            plan.append(("new", walked))
            walked += 1
        else:
            plan.append(("hot", int(rank)))
    return plan


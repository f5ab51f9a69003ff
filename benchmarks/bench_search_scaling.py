"""Search-scaling benchmark: reference vs vectorized.

Quantifies the staged search's win across nest depths 1-5 and two
block-size grids: the NumPy batch engine evaluates the whole candidate
matrix at once, byte-identical to the exhaustive reference, which is
what makes depth-5 sweeps tractable — the reference is skipped there
(minutes per run).

The vectorized rows run ``search_mapping`` as production calls it: the
engine is the one it picks for the kernel's constraint set (asserted to
be the vectorized engine).

Rows are written to ``BENCH_search_scaling.json`` at the repo root (same
one-row-per-measurement layout as the other ``BENCH_*`` artifacts).  Run
under pytest (``pytest benchmarks/bench_search_scaling.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_search_scaling.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

from repro.analysis import (
    analyze_program,
    search_mapping,
    search_mapping_reference,
)
from repro.config import BLOCK_SIZE_CANDIDATES
from repro.ir import Builder, F64
from repro.ir.builder import range_map

_OUT = Path(__file__).resolve().parents[1] / "BENCH_search_scaling.json"

#: Default-grid speedups the vectorized engine must hold over the
#: exhaustive reference, per depth.  They measure
#: 250-600x on the benchmark machines; the floors leave headroom for
#: noisy runners while still catching a collapse back to per-candidate
#: work.
MIN_VEC_SPEEDUP = {3: 100.0, 4: 200.0}
#: The exhaustive reference is skipped at and beyond this depth (it
#: needs minutes per run there; the vectorized engine is the practical
#: oracle proxy, and its byte-identity to the reference is test-enforced
#: through depth 5 in tests/analysis/test_search_engines.py).
REFERENCE_MAX_DEPTH = 4


def _make_scale():
    b = Builder("scaleVec")
    v = b.vector("v", F64, length="N")
    return b.build(v.map(lambda x: x * 2.0))


def _make_sum_rows():
    b = Builder("sumRows")
    m = b.matrix("m", F64, rows="R", cols="C")
    return b.build(m.map_rows(lambda row: row.reduce("+")))


def _make_msmbuilder():
    from repro.apps.msmbuilder import build_msmbuilder

    return build_msmbuilder()


def _make_batched():
    """Four parallel levels: batch x frame x cluster x feature distance."""
    b = Builder("batchedClustering")
    batches = b.size("B")
    frames = b.size("P")
    clusters = b.size("K")
    x = b.matrix("X", F64, rows="P", cols="D")
    cent = b.matrix("Cent", F64, rows="K", cols="D")
    scale = b.vector("scale", F64, length="B")
    out = range_map(
        batches,
        lambda bi: range_map(
            frames,
            lambda pi: range_map(
                clusters,
                lambda ki: x.row(pi).zip_with(
                    cent.row(ki), lambda a, c: (a - c) * (a - c)
                ).reduce("+") * scale[bi],
                index_name="ki",
            ),
            index_name="pi",
        ),
        index_name="bi",
    )
    return b.build(out)


def _make_ensembles():
    """Five parallel levels: ensemble x batch x frame x cluster x distance."""
    b = Builder("ensembleClustering")
    ensembles = b.size("E")
    batches = b.size("B")
    frames = b.size("P")
    clusters = b.size("K")
    x = b.matrix("X", F64, rows="P", cols="D")
    cent = b.matrix("Cent", F64, rows="K", cols="D")
    scale = b.vector("scale", F64, length="B")
    bias = b.vector("bias", F64, length="E")
    out = range_map(
        ensembles,
        lambda ei: range_map(
            batches,
            lambda bi: range_map(
                frames,
                lambda pi: range_map(
                    clusters,
                    lambda ki: x.row(pi).zip_with(
                        cent.row(ki), lambda a, c: (a - c) * (a - c)
                    ).reduce("+") * scale[bi] + bias[ei],
                    index_name="ki",
                ),
                index_name="pi",
            ),
            index_name="bi",
        ),
        index_name="ei",
    )
    return b.build(out)


#: depth -> (program builder, analysis sizes).
DEPTH_CASES = {
    1: (_make_scale, dict(N=1 << 20)),
    2: (_make_sum_rows, dict(R=8192, C=8192)),
    3: (_make_msmbuilder, dict(P=2048, K=100, D=100)),
    4: (_make_batched, dict(B=8, P=64, K=64, D=64)),
    5: (_make_ensembles, dict(E=4, B=8, P=64, K=64, D=64)),
}

#: grid label -> block-size candidates.
GRIDS = {
    "default": BLOCK_SIZE_CANDIDATES,
    "coarse": (1, 8, 64, 512),
}


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def run_scaling() -> List[Dict]:
    """Reference / vectorized rows per (depth, grid)."""
    rows: List[Dict] = []
    for depth, (make, sizes) in sorted(DEPTH_CASES.items()):
        ka = analyze_program(make(), **sizes).kernel(0)
        args = (ka.depth, ka.constraints, ka.level_sizes())
        for grid_name, grid in GRIDS.items():
            ref = ref_ms = None
            if depth <= REFERENCE_MAX_DEPTH:
                ref = search_mapping_reference(*args, block_sizes=grid)
                ref_ms = _time_best(
                    lambda: search_mapping_reference(*args, block_sizes=grid),
                    repeats=1 if depth >= 3 else 3,
                )

            vectorized = search_mapping(*args, block_sizes=grid)
            assert vectorized.strategy == "vectorized", (depth, grid_name)
            if ref is not None:
                assert vectorized.mapping == ref.mapping, (depth, grid_name)
                assert vectorized.score == ref.score
                assert vectorized.candidates_total == ref.candidates_total
                assert (vectorized.candidates_feasible
                        == ref.candidates_feasible)
            vec_ms = _time_best(
                lambda: search_mapping(*args, block_sizes=grid),
                repeats=3,
            )

            measured = [("vectorized", vec_ms, vectorized)]
            if ref is not None:
                measured.insert(0, ("reference", ref_ms, ref))
            for strategy, wall_ms, result in measured:
                rows.append(dict(
                    bench="search_scaling",
                    depth=depth,
                    grid=grid_name,
                    strategy=strategy,
                    wall_ms=round(wall_ms, 4),
                    speedup_vs_reference=(
                        round(ref_ms / wall_ms, 2)
                        if ref_ms is not None and wall_ms else None
                    ),
                    candidates_total=result.candidates_total,
                    candidates_feasible=result.candidates_feasible,
                    candidates_scored=result.candidates_scored,
                    batch_shape=(
                        list(result.batch_shape)
                        if getattr(result, "batch_shape", None) is not None
                        else None
                    ),
                ))
    return rows


def _vec_speedup(rows: List[Dict], depth: int) -> float:
    """Vectorized over reference on the default grid at ``depth``."""
    by_key = {
        (r["depth"], r["grid"], r["strategy"]): r["wall_ms"] for r in rows
    }
    return (by_key[(depth, "default", "reference")]
            / by_key[(depth, "default", "vectorized")])


def _write(rows: List[Dict]) -> None:
    _OUT.write_text(json.dumps(dict(rows=rows), indent=2) + "\n")


def test_bench_search_scaling():
    rows = run_scaling()
    _write(rows)

    speedups = {depth: _vec_speedup(rows, depth) for depth in MIN_VEC_SPEEDUP}
    print()
    for row in rows:
        print(
            f"depth {row['depth']} {row['grid']:<8} {row['strategy']:<10}"
            f" {row['wall_ms']:>10.3f} ms"
            f"  scored {row['candidates_scored']:>7}"
            f" / {row['candidates_total']:>7}"
        )
    for depth, speedup in speedups.items():
        print(f"depth-{depth} default-grid vectorized-vs-reference: "
              f"{speedup:.1f}x (floor {MIN_VEC_SPEEDUP[depth]}x)")

    for depth, speedup in speedups.items():
        assert speedup >= MIN_VEC_SPEEDUP[depth], (depth, speedup)


if __name__ == "__main__":
    test_bench_search_scaling()
    print(f"wrote {_OUT}")

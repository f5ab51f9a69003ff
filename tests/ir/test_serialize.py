"""Program serialization: every app round-trips structurally and
semantically through the JSON format the reproducer artifacts use."""

import copy

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.errors import IRError
from repro.interp.evaluator import Evaluator
from repro.ir import Builder, F64
from repro.ir.serialize import (
    dumps,
    loads,
    program_from_dict,
    program_to_dict,
)
from repro.ir.traversal import structurally_equal


def _small_params(app):
    return {name: max(2, min(value, 8))
            for name, value in app.default_params.items()}


def _same(a, b):
    if isinstance(a, dict):
        assert set(a) == set(b)
        for key in a:
            _same(a[key], b[key])
        return
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
        return
    if a is None:
        assert b is None
        return
    a_arr, b_arr = np.asarray(a), np.asarray(b)
    if a_arr.dtype == object or b_arr.dtype == object:
        for x, y in zip(a, b):
            _same(x, y)
        return
    assert np.array_equal(a_arr, b_arr)


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_apps_round_trip(name):
    app = ALL_APPS[name]
    params = _small_params(app)
    program = app.build(**params)
    rebuilt = loads(dumps(program))

    assert rebuilt.name == program.name
    assert [p.name for p in rebuilt.params] == [p.name for p in program.params]
    assert rebuilt.size_hints == program.size_hints
    assert structurally_equal(program.result, rebuilt.result)

    inputs = app.workload(app.make_rng(3), **params)
    original = Evaluator(program, seed=3).run(**copy.deepcopy(inputs))
    replayed = Evaluator(rebuilt, seed=3).run(**copy.deepcopy(inputs))
    _same(original, replayed)


def test_version_mismatch_rejected():
    b = Builder("tiny")
    v = b.vector("v", F64, "N")
    data = program_to_dict(b.build(v.map(lambda e: e * 2.0)))
    data["version"] = 999
    with pytest.raises(IRError):
        program_from_dict(data)


def test_unknown_node_tag_rejected():
    with pytest.raises(IRError):
        from repro.ir.serialize import node_from_dict

        node_from_dict({"n": "mystery"})


class TestCompileDigest:
    """The content address every service cache layer keys on."""

    @staticmethod
    def _digest(program, **kwargs):
        from repro.gpusim.device import DEVICES
        from repro.ir.serialize import compile_digest

        defaults = dict(
            device=DEVICES["Tesla K20c"],
            strategy="multidim",
            sizes={"R": 64, "C": 32},
        )
        defaults.update(kwargs)
        return compile_digest(program, **defaults)

    def test_semantically_equal_builds_hash_equal(self):
        # Two builds of the same app gensym different binder names
        # ("i0" vs "i7"); the digest must not see them.
        app = ALL_APPS["sumRows"]
        assert self._digest(app.build()) == self._digest(app.build())

    @pytest.mark.parametrize("name", sorted(ALL_APPS))
    def test_every_app_digests_stably(self, name):
        app = ALL_APPS[name]
        assert self._digest(app.build()) == self._digest(app.build())

    def test_distinct_apps_hash_apart(self):
        digests = {
            self._digest(ALL_APPS[name].build()) for name in sorted(ALL_APPS)
        }
        assert len(digests) == len(ALL_APPS)

    def test_size_order_is_canonical(self):
        program = ALL_APPS["sumRows"].build()
        assert self._digest(program, sizes={"R": 64, "C": 32}) == \
            self._digest(program, sizes={"C": 32, "R": 64})

    def test_inputs_that_matter_change_the_digest(self):
        from repro.gpusim.device import DEVICES
        from repro.optim.pipeline import OptimizationFlags

        program = ALL_APPS["sumRows"].build()
        base = self._digest(program)
        assert base != self._digest(program, sizes={"R": 128, "C": 32})
        assert base != self._digest(program, strategy="1d")
        assert base != self._digest(program, device=DEVICES["Tesla C2050"])
        assert base != self._digest(
            program, flags=OptimizationFlags(shared_memory=False)
        )

    def test_schema_bump_changes_every_digest(self, monkeypatch):
        import repro.ir.serialize as serialize

        program = ALL_APPS["sumRows"].build()
        base = self._digest(program)
        monkeypatch.setattr(serialize, "PIPELINE_VERSION", 999)
        assert self._digest(program) != base

    def test_format_bump_changes_every_digest(self, monkeypatch):
        import repro.ir.serialize as serialize

        program = ALL_APPS["sumRows"].build()
        base = self._digest(program)
        monkeypatch.setattr(serialize, "FORMAT_VERSION", 999)
        assert self._digest(program) != base

    def test_canonical_rename_preserves_free_names(self):
        # Parameters and symbolic sizes are free names the size_hints /
        # array_shapes keys refer to; alpha-renaming must not touch them.
        from repro.ir.serialize import canonical_program_dict

        data = canonical_program_dict(ALL_APPS["sumRows"].build())
        assert [p["name"] for p in data["params"]] == ["R", "C", "m"]
        shape_names = [s["name"] for s in data["array_shapes"]["m"]]
        assert shape_names == ["R", "C"]

    def test_canonical_rename_round_trips(self):
        # The canonical form is still a loadable program with identical
        # semantics (binder names are meaningless by construction).
        program = ALL_APPS["sumRows"].build()
        from repro.ir.serialize import canonical_program_dict

        rebuilt = program_from_dict(canonical_program_dict(program))
        inputs = ALL_APPS["sumRows"].workload(
            ALL_APPS["sumRows"].make_rng(3), R=8, C=4
        )
        original = Evaluator(program, seed=3).run(
            **copy.deepcopy(inputs)
        )
        replayed = Evaluator(rebuilt, seed=3).run(**copy.deepcopy(inputs))
        _same(original, replayed)


class TestWireIRDigestSoundness:
    """Hand-crafted (wire) IR is under no unique-binder contract; the
    digest must never canonicalize two different programs together."""

    @staticmethod
    def _program(index_name, body_name):
        from repro.ir.expr import Const, Param, Var
        from repro.ir.patterns import Map, Program
        from repro.ir.types import I32
        from repro.ir.validate import validate_program

        program = Program(
            "wire",
            (Param("_b0", I32),),
            Map(
                Const(4, I32),
                Var(index_name, I32),
                Var(body_name, I32),
            ),
        )
        validate_program(program)  # both spellings are legal wire IR
        return program

    def test_param_spelled_like_canonical_binder_does_not_merge(self):
        from repro.ir.serialize import compile_digest

        # Same shape, different meaning: one body reads the *parameter*
        # "_b0", the other reads the map *index*.  A rename that gave
        # the index "_b0" would send both to map(_b0 -> _b0), serving
        # one's cached artifact for the other; the targets skip free
        # names, so the index becomes "_b1" and they hash apart.
        uses_param = self._program("i", "_b0")
        uses_binder = self._program("j", "j")
        assert compile_digest(uses_param) != compile_digest(uses_binder)

    def test_shadowed_binders_fall_back_to_raw_names(self):
        from repro.ir.expr import Const, Param, Var
        from repro.ir.patterns import Map, Program
        from repro.ir.serialize import (
            canonical_program_dict,
            compile_digest,
        )
        from repro.ir.types import I32
        from repro.ir.validate import validate_program

        def nest(outer, inner, body):
            program = Program(
                "wire",
                (Param("n", I32),),
                Map(
                    Var("n", I32),
                    Var(outer, I32),
                    Map(Const(4, I32), Var(inner, I32), Var(body, I32)),
                ),
            )
            validate_program(program)
            return program

        shadowed = nest("i", "i", "i")        # body reads the inner index
        distinct = nest("i", "j", "i")        # body reads the outer index
        assert compile_digest(shadowed) != compile_digest(distinct)
        # The shadowed program is digested with its names as-is (no
        # rename map is sound for it), deterministically.
        data = canonical_program_dict(shadowed)
        assert data == program_to_dict(shadowed)
        assert compile_digest(shadowed) == compile_digest(nest("i", "i", "i"))

    def test_contract_satisfying_programs_still_renamed(self):
        import json

        from repro.ir.serialize import canonical_program_dict

        data = canonical_program_dict(ALL_APPS["sumRows"].build())
        assert "_b0" in json.dumps(data)


def _sum_rows_over(matrix_name):
    b = Builder("sumRows")
    m = b.matrix(matrix_name, F64, rows="R", cols="C")
    return b.build(m.map_rows(lambda row: row.reduce("+")))


def _canonical_form_programs():
    """The 18 apps, the 20 corpus programs and 200 generated programs."""
    import os

    from repro.difftest import ProgramGenerator, load_corpus
    from repro.difftest.generator import build_program

    corpus = os.path.join(
        os.path.dirname(__file__), os.pardir, "integration", "corpus",
        "seed_corpus.json",
    )
    generator = ProgramGenerator(seed=7)
    return (
        [ALL_APPS[name].build() for name in sorted(ALL_APPS)]
        + [build_program(spec) for spec in load_corpus(corpus)]
        + [build_program(generator.random_spec()) for _ in range(200)]
    )


class TestOneCanonicalForm:
    """The digest hashes exactly the program the pipeline compiles."""

    def test_compiled_form_is_the_hashed_form(self):
        from repro.ir.serialize import (
            canonical_program_dict,
            canonicalize_program,
            compile_digest,
        )

        programs = _canonical_form_programs()
        assert len(programs) == 238
        for program in programs:
            canonical = canonicalize_program(program)
            assert program_to_dict(canonical) == canonical_program_dict(
                program
            ), program.name
            assert compile_digest(canonical) == compile_digest(program)

    def test_binder_targets_skip_free_names(self):
        from repro.ir.serialize import canonical_program_dict

        data = canonical_program_dict(_sum_rows_over("_b0"))
        assert [p["name"] for p in data["params"]] == ["R", "C", "_b0"]
        # The outer map's index is the first binder; "_b0" is taken.
        assert data["result"]["index"]["name"] == "_b1"
        assert program_to_dict(program_from_dict(data)) == data

    def test_param_named_like_a_binder_gives_one_digest_per_program(self):
        from repro.ir.serialize import canonicalize_program, compile_digest

        first, second = _sum_rows_over("_b0"), _sum_rows_over("_b0")
        assert program_to_dict(first) != program_to_dict(second)
        assert compile_digest(first) == compile_digest(second)
        assert program_to_dict(canonicalize_program(first)) == (
            program_to_dict(canonicalize_program(second))
        )

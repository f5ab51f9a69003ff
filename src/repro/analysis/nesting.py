"""Nest extraction: levels, sizes, and structure of nested patterns.

A *level* is how deep a pattern sits from the outermost enclosing pattern
(Section IV): level 0 is the outermost pattern, and all patterns at the same
depth share a level — e.g. PageRank's inner map and reduce are both level 1.

Each outermost pattern becomes one GPU kernel (the paper's one-to-one
mapping); :func:`extract_kernels` finds them and :func:`build_nest` computes
the per-kernel level structure the mapping analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AnalysisError
from ..ir.expr import ArrayRead, Expr, Node, Store
from ..ir.patterns import PatternExpr, Program
from ..ir.traversal import pattern_paths
from .shapes import SizeEnv, SizeValue, eval_size, size_depends_on_indices


@dataclass
class PatternInfo:
    """Analysis facts about one pattern occurrence within a nest."""

    pattern: PatternExpr
    level: int
    #: Enclosing patterns, outermost first (excludes the pattern itself).
    enclosing: Tuple[PatternExpr, ...]
    #: Representative evaluated domain size.
    size: SizeValue
    #: True when the domain size is unknown at kernel-launch time because
    #: it depends on an enclosing pattern's index (first Span(all) trigger).
    launch_dynamic: bool
    #: True when parallelizing this pattern requires global synchronization
    #: (Reduce/Filter/GroupBy — second Span(all) trigger).
    needs_sync: bool

    @property
    def enclosing_index_names(self) -> frozenset:
        return frozenset(p.index.name for p in self.enclosing)


@dataclass
class LevelInfo:
    """Aggregate facts about one nest level."""

    level: int
    patterns: List[PatternInfo] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Representative domain size for the level (max across patterns)."""
        return max((int(p.size) for p in self.patterns), default=1)

    @property
    def needs_span_all(self) -> bool:
        """The level-wide hard requirement (most conservative span wins).

        This is the paper's *global* hard constraint: if any pattern at the
        level needs global synchronization or has a launch-dynamic size,
        the whole level gets Span(all).
        """
        return any(p.needs_sync or p.launch_dynamic for p in self.patterns)


@dataclass
class Nest:
    """The level structure of one kernel (one outermost pattern)."""

    root: PatternExpr
    levels: List[LevelInfo]
    info_by_pattern: Dict[PatternExpr, PatternInfo]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level_sizes(self) -> List[int]:
        return [lv.size for lv in self.levels]

    def info(self, pattern: PatternExpr) -> PatternInfo:
        try:
            return self.info_by_pattern[pattern]
        except KeyError:
            raise AnalysisError(f"pattern {pattern!r} is not part of this nest")

    def has_outer_body_work(self, level: int) -> bool:
        """True when the nest is *imperfect* at ``level``.

        A level is imperfect when memory accesses or bindings execute in
        its body outside any deeper pattern — the trigger for the
        shared-memory prefetch optimization (Section V-B).
        """
        if level >= self.depth - 1:
            return False  # innermost level has nothing deeper
        for pinfo in self.levels[level].patterns:
            if _accesses_outside_inner_patterns(pinfo.pattern):
                return True
        return False


def outermost_patterns(expr: Expr) -> List[PatternExpr]:
    """Patterns in ``expr`` not enclosed by any other pattern."""
    result: List[PatternExpr] = []
    stack: List[Node] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, PatternExpr):
            result.append(node)
            continue
        # Children are pushed reversed so the pop order (and therefore the
        # kernel order) matches program order.
        stack.extend(reversed(node.children()))
    return result


def extract_kernels(program: Program) -> List["Nest"]:
    """One nest per outermost pattern, in program order."""
    env = SizeEnv.for_program(program)
    roots = outermost_patterns(program.result)
    if not roots:
        raise AnalysisError(
            f"program {program.name} contains no parallel patterns"
        )
    return [build_nest(root, env) for root in roots]


def build_nest(root: PatternExpr, env: Optional[SizeEnv] = None) -> Nest:
    """Compute the level structure under one outermost pattern."""
    if env is None:
        env = SizeEnv()
    levels: List[LevelInfo] = []
    info_by_pattern: Dict[PatternExpr, PatternInfo] = {}

    for path in pattern_paths(root):
        pattern = path[-1]
        level = len(path) - 1
        enclosing = path[:-1]
        enclosing_names = frozenset(p.index.name for p in enclosing)
        info = PatternInfo(
            pattern=pattern,
            level=level,
            enclosing=enclosing,
            size=eval_size(pattern.size, env),
            launch_dynamic=size_depends_on_indices(pattern.size, enclosing_names),
            needs_sync=pattern.needs_global_sync,
        )
        info_by_pattern[pattern] = info
        while len(levels) <= level:
            levels.append(LevelInfo(level=len(levels)))
        levels[level].patterns.append(info)

    return Nest(root=root, levels=levels, info_by_pattern=info_by_pattern)


def _accesses_outside_inner_patterns(pattern: PatternExpr) -> bool:
    """Does this pattern's body touch memory outside its child patterns?"""
    for body_node in pattern.body_nodes():
        if _node_has_outer_access(body_node):
            return True
    return False


def _node_has_outer_access(node: Node) -> bool:
    if isinstance(node, PatternExpr):
        return False  # accesses inside deeper patterns don't count
    if isinstance(node, (ArrayRead, Store)):
        return True
    return any(_node_has_outer_access(child) for child in node.children())

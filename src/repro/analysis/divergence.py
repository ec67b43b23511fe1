"""Divergence (tid-taint) analysis.

The paper's Section V traces the `complex` slowdown to a branch whose
condition depends on the thread id ("We could avoid such cases by employing
a taint analysis that checks whether a condition depends on the values of
e.g. threadIdx") and lists divergence analysis as future work.  We implement
that taint analysis: a value is *divergent* if it (transitively) depends on
``tid.x`` through data flow, or is a phi whose incoming values differ across
divergent control flow.

This is a sound-but-simple forward data-flow taint; it intentionally over-
approximates (loads are treated as uniform unless their address is used to
read data written divergently within the same kernel — cross-memory taint is
out of scope, as in the paper's sketch).
"""

from __future__ import annotations

from typing import Dict, Set

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (CallInst, CondBranchInst, Instruction,
                               LoadInst, PhiInst)
from ..ir.values import Argument, Value
from . import manager
from .loops import Loop

#: Intrinsics whose result differs between lanes of a warp.
DIVERGENT_SOURCES = ("tid.x",)
#: Intrinsics uniform across a block/warp.
UNIFORM_SOURCES = ("ctaid.x", "ntid.x", "nctaid.x")


class DivergenceInfo:
    """Set of values known (transitively) divergent in a function."""

    def __init__(self, func: Function,
                 divergent_args: Set[str] = frozenset()) -> None:
        self.function = func
        self.divergent_args = set(divergent_args)
        self._divergent: Set[int] = set()
        self._run()

    @classmethod
    def compute(cls, func: Function,
                divergent_args: Set[str] = frozenset()) -> "DivergenceInfo":
        return cls(func, divergent_args)

    def is_divergent(self, value: Value) -> bool:
        return id(value) in self._divergent

    def divergent_branches(self) -> Dict[BasicBlock, Instruction]:
        """Blocks whose conditional branch condition is divergent."""
        result = {}
        for block in self.function.blocks:
            term = block.terminator
            if isinstance(term, CondBranchInst) and self.is_divergent(term.condition):
                result[block] = term
        return result

    def _run(self) -> None:
        # Seed: divergent intrinsics and explicitly divergent arguments
        # (kernel arguments derived from the global thread id, as in the
        # paper's `complex` where `n = threadIdx.x + blockIdx.x * blockDim.x`).
        for arg in self.function.args:
            if arg.name in self.divergent_args:
                self._divergent.add(id(arg))
        self._domtree = manager.domtree(self.function)
        changed = True
        while changed:
            changed = False
            for inst in self.function.instructions():
                if id(inst) in self._divergent or inst.type.is_void:
                    continue
                if self._transfer(inst):
                    self._divergent.add(id(inst))
                    changed = True

    def _transfer(self, inst: Instruction) -> bool:
        if isinstance(inst, CallInst):
            if inst.intrinsic.name in DIVERGENT_SOURCES:
                return True
            if inst.intrinsic.name in UNIFORM_SOURCES:
                return any(id(op) in self._divergent for op in inst.operands)
        if isinstance(inst, PhiInst):
            # A phi is divergent if any incoming value is divergent, or if
            # a branch controlling the merge is divergent (sync dependence).
            # Controlling branches: the predecessors' terminators and the
            # terminator of the merge's immediate dominator (the branch at
            # the top of the diamond).
            if any(id(v) in self._divergent for v in inst.operands):
                return True
            control_blocks = list(inst.incoming_blocks)
            if inst.parent is not None:
                idom = self._domtree.idom(inst.parent)
                if idom is not None:
                    control_blocks.append(idom)
            for block in control_blocks:
                term = block.terminator
                if isinstance(term, CondBranchInst) and \
                        id(term.condition) in self._divergent:
                    return True
            return False
        return any(id(op) in self._divergent for op in inst.operands)


def dataflow_tid_tainted(func: Function) -> Set[int]:
    """Value ids tainted by ``tid.x`` through *data flow only*.

    A deliberately sharper variant of :class:`DivergenceInfo` for feature
    extraction: the phi sync-dependence rule is dropped (under a
    ``gid < n`` thread guard it taints every loop phi in the kernel, so
    the full analysis saturates to "everything divergent" and carries no
    signal), and loads are uniform regardless of their address, exactly
    as in the full analysis.  What remains is the paper's Section V
    sketch verbatim: "a condition [that] depends on the values of e.g.
    threadIdx" — arithmetic chains rooted at the thread id itself.
    """
    tainted: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for inst in func.instructions():
            if id(inst) in tainted or isinstance(inst, LoadInst):
                continue
            if isinstance(inst, CallInst) and \
                    inst.intrinsic.name in DIVERGENT_SOURCES:
                hit = True
            else:
                hit = any(id(op) in tainted for op in inst.operands)
            if hit:
                tainted.add(id(inst))
                changed = True
    return tainted


def loop_has_tid_dataflow_branch(loop: Loop, tainted: Set[int]) -> bool:
    """True if an in-body branch condition is data-flow tid-tainted.

    This is the `complex` signature (paper Listing 7, ``n & 1`` with
    ``n`` seeded from the global thread id): every iteration re-diverges
    on a value that differs per lane *by construction*, so unrolling
    multiplies the serialized divergent body with no redundancy for the
    cleanup passes to remove.  Loops whose in-body conditions come from
    loaded data do not flag — their divergence is an input property, not
    a structural one.
    """
    for block in loop.blocks:
        term = block.terminator
        if isinstance(term, CondBranchInst) and \
                id(term.condition) in tainted:
            if all(loop.contains(s) for s in term.successors()):
                return True
    return False


def loop_has_divergent_branch(loop: Loop, info: DivergenceInfo) -> bool:
    """True if any conditional branch inside the loop is divergent.

    This implements the avoidance filter the paper proposes in Section V for
    cases like `complex`.
    """
    for block in loop.blocks:
        term = block.terminator
        if isinstance(term, CondBranchInst) and info.is_divergent(term.condition):
            # Only branches that stay inside the loop body cause the
            # serialization u&u amplifies; exit checks diverge at most once.
            if all(loop.contains(s) for s in term.successors()):
                return True
    return False

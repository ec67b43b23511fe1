"""Per-function CFG analysis cache (a minimal LLVM-style analysis manager).

Predecessors, reverse postorder, the dominator tree and loop info depend
only on a function's CFG: its block list and its terminators' successor
edges.  Every IR primitive that edits either bumps the function's
``cfg_epoch`` (see :class:`repro.ir.function.Function`), so a result
computed at the current epoch is exactly what a fresh computation would
return.  The accessors below hand out such results, computing them on a
miss through the public ``predecessor_map``, ``reverse_postorder``,
``DominatorTree.compute`` and ``LoopInfo.compute``.

There are no per-pass "preserves" declarations: a pass that leaves the CFG
alone keeps every analysis, one that edits it loses all of them.  Results
are shared between callers and must not be mutated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..ir.block import BasicBlock
from ..ir.function import Function
from .cfg_utils import predecessor_map, reverse_postorder

if TYPE_CHECKING:
    from .dominators import DominatorTree
    from .loops import LoopInfo


def preds(func: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Cached :func:`~repro.analysis.cfg_utils.predecessor_map`."""
    return func.cached_analysis("preds", predecessor_map)  # type: ignore[return-value]


def rpo(func: Function) -> List[BasicBlock]:
    """Cached :func:`~repro.analysis.cfg_utils.reverse_postorder`."""
    return func.cached_analysis("rpo", reverse_postorder)  # type: ignore[return-value]


def domtree(func: Function) -> "DominatorTree":
    """Cached :meth:`DominatorTree.compute`."""
    from .dominators import DominatorTree

    return func.cached_analysis(  # type: ignore[return-value]
        "domtree", DominatorTree.compute)


def loop_info(func: Function) -> "LoopInfo":
    """Cached :meth:`LoopInfo.compute`."""
    from .loops import LoopInfo

    return func.cached_analysis(  # type: ignore[return-value]
        "loops", LoopInfo.compute)

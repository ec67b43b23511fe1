"""LCSSA (Loop-Closed SSA) form.

Values defined inside a loop and used outside are routed through phis in the
loop's exit blocks.  Both unrolling and unmerging add predecessors to exit
blocks; with LCSSA in place they only need to extend those exit phis instead
of performing general SSA reconstruction — the same reason LLVM requires
LCSSA before its loop passes.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.loops import Loop
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction, PhiInst


def form_lcssa(func: Function, loop: Loop) -> bool:
    """Rewrite out-of-loop uses of in-loop definitions through exit phis.

    Returns True if any rewrite happened.  Supports the common case where
    each out-of-loop use is dominated by a single exit block (always true
    for the single-exit loops our frontend produces); raises otherwise.
    """
    from ..analysis import manager as analyses

    exit_blocks = loop.exit_blocks()
    if not exit_blocks:
        return False
    changed = False
    domtree = analyses.domtree(func)
    # All predecessors — an exit block may have out-of-loop predecessors
    # too (e.g. it is the header of a following loop); the LCSSA phi needs
    # one entry per predecessor.
    preds_of_exit: Dict[int, List[BasicBlock]] = {
        id(e): e.predecessors() for e in exit_blocks}

    for block in list(loop.blocks):
        for inst in list(block.instructions):
            if inst.type.is_void:
                continue
            outside_uses = []
            for use in list(inst.uses):
                user = use.user
                if not isinstance(user, Instruction) or user.parent is None:
                    continue
                user_block = user.parent
                if isinstance(user, PhiInst):
                    user_block = user.incoming_blocks[use.index]
                if not loop.contains(user_block):
                    outside_uses.append(use)
            if not outside_uses:
                continue
            # One LCSSA phi per exit block that can see the definition.
            phis: Dict[int, PhiInst] = {}
            for exit_block in exit_blocks:
                all_preds = preds_of_exit[id(exit_block)]
                loop_preds = [p for p in all_preds if loop.contains(p)]
                if not all(domtree.dominates_block(block, p)
                           for p in loop_preds):
                    continue
                phi = PhiInst(inst.type)
                phi.name = func.unique_name(f"{inst.name or 'v'}.lcssa")
                exit_block.insert(exit_block.first_non_phi_index(), phi)
                for pred in all_preds:
                    if domtree.dominates_block(exit_block, pred):
                        # Back edge into the exit block (it is the header
                        # of a following loop): the value must *circulate*
                        # through the phi.  Re-reading the raw definition
                        # here would observe a stale dynamic value once
                        # unrolling moves the loop exit to a cloned header.
                        phi.add_incoming(phi, pred)
                    elif domtree.dominates_block(block, pred):
                        phi.add_incoming(inst, pred)
                    else:
                        # Genuine bypass path: the value is never observed.
                        from ..ir.constants import Undef

                        phi.add_incoming(Undef(inst.type), pred)
                phis[id(exit_block)] = phi
            for use in outside_uses:
                user = use.user
                assert isinstance(user, Instruction)
                use_block = user.parent
                assert use_block is not None
                if isinstance(user, PhiInst):
                    use_block = user.incoming_blocks[use.index]
                target_phi = None
                for exit_block in exit_blocks:
                    phi = phis.get(id(exit_block))
                    if phi is None or user is phi:
                        continue
                    if domtree.dominates_block(exit_block, use_block):
                        target_phi = phi
                        break
                if target_phi is None:
                    raise NotImplementedError(
                        f"LCSSA: use of %{inst.name} in {use_block.name} is "
                        f"not dominated by a single exit block")
                use.set(target_phi)
                changed = True
    return changed

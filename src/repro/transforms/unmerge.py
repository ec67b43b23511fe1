"""Control-flow unmerging (the paper's core transformation).

Unmerging eliminates merge blocks inside a loop body by tail duplication
(Section III-A.1, Figure 2): a block with multiple in-loop predecessors is
duplicated — together with *everything reachable from it up to the back
edge*, the paper's "aggressively duplicates the entire path leading to the
initial loop header" — so that each predecessor continues into its own
private copy.  Afterwards every root-to-backedge path through the body is a
chain of single-predecessor blocks, which is precisely the shape on which
GVN's branch facts, SCCP and load elimination can exploit control-flow
provenance.

Structural rules (matching the paper's implementation notes):

* the loop header itself is never unmerged (it is the loop boundary);
* inner-loop headers are never unmerged (their two predecessors are the
  loop entry and their own latch; duplicating them would tear the inner
  loop apart) — inner-loop *bodies* are unmerged by invoking the pass on
  the inner loop, which the u&u driver does innermost-first;
* when the duplicated tail contains a whole inner loop, the inner loop is
  cloned wholesale (its back edge stays internal to each copy);
* loop exits and the loop header act as region boundaries: they are not
  duplicated, they just gain phi entries (LCSSA makes that sufficient);
* phi nodes in duplicated merge blocks collapse to the incoming value of
  the one predecessor that reaches each copy (the paper's footnote 1 on
  "unraveling" phis when control decays to a single predecessor block);
* a growth cap bounds the exponential worst case ``f(p, s, u)`` — hitting
  it aborts the transformation for that loop, the analogue of the paper's
  5-minute compile timeouts on ccs.

The cost of a duplication follows the code it produces, not the size of
the function: :class:`_UnmergeState` keeps predecessor lists, the
instruction count and the set of pending merges up to date across
duplications instead of recomputing whole-function analyses.  Picking the
next merge walks only the blocks that can still reach a pending merge (see
:meth:`_UnmergeState.next_merge`), not the whole region.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis import manager as analyses
from ..analysis.loops import Loop
from ..ir.block import BasicBlock
from ..ir.clone import clone_blocks, map_value
from ..ir.function import Function
from ..ir.instructions import PhiInst
from ..ir.values import Value
from ..obs import session as obs
from .lcssa import form_lcssa


class UnmergeBudgetExceeded(Exception):
    """The duplication grew past the instruction cap (compile "timeout")."""


def unmerge_loop(func: Function, loop: Loop,
                 max_instructions: int = 60_000,
                 selective: bool = False) -> bool:
    """Unmerge all control-flow merges in ``loop``'s body.

    Returns True if the CFG changed.  Raises
    :class:`UnmergeBudgetExceeded` when duplication outgrows
    ``max_instructions`` summed over the function (the IR is left in a
    valid, partially-unmerged state).

    ``selective=True`` enables the paper's *partial unmerging* extension
    (Section VI): only merge blocks whose duplication can feed the cleanup
    passes are duplicated (see :mod:`repro.transforms.profitability`).
    """
    form_lcssa(func, loop)
    state = _UnmergeState(func, loop)
    changed = False
    duplicated = 0
    while True:
        merge = state.next_merge()
        if merge is None:
            if duplicated and obs.active() is not None:
                obs.remark("analysis", "unmerge", func.name,
                           "duplicated merge tails", loop_id=loop.loop_id,
                           duplicated=duplicated,
                           skipped_unprofitable=state.skipped)
            return changed
        if selective:
            from .profitability import merge_is_profitable

            tail = _tail_blocks(state.header, merge, state.region)
            if not merge_is_profitable(state.region_blocks, merge, tail):
                state.skip(merge)
                continue
        state.duplicate_tail(merge)
        changed = True
        duplicated += 1
        if state.size > max_instructions:
            obs.remark("analysis", "unmerge", func.name,
                       "unmerge budget exceeded", loop_id=loop.loop_id,
                       duplicated=duplicated, budget=max_instructions)
            raise UnmergeBudgetExceeded(
                f"loop {loop.loop_id}: unmerged body exceeded "
                f"{max_instructions} instructions")


class _UnmergeState:
    """CFG bookkeeping of one :func:`unmerge_loop` call, kept incrementally.

    * ``region``: ids of the loop's blocks plus every clone made so far;
      ``region_blocks`` lists them in function block order.
    * ``inner``: ids of region blocks inside nested loops (clones of such
      blocks included).  Their merges belong to the nested loop's own
      unmerge call (u&u unmerges innermost loops first), and duplicating
      across a nested back edge would tear the nested loop apart.
    * ``preds``: every block's predecessors in function block order, equal
      to ``predecessor_map(func)`` between duplications.
    * ``size``: ``func.instruction_count()``.
    * ``pending``: region blocks that are still merges: not the header, not
      in ``inner``, not skipped, with >= 2 in-region predecessors.
    """

    def __init__(self, func: Function, loop: Loop) -> None:
        self.func = func
        self.header = loop.header
        self.region: Set[int] = {id(b) for b in loop.blocks}
        self.region_blocks = [b for b in func.blocks if id(b) in self.region]
        self.inner: Set[int] = set()
        for nested in analyses.loop_info(func).loops:
            if nested.header is not self.header and \
                    loop.contains(nested.header):
                self.inner.update(id(b) for b in nested.blocks)
        self.preds: Dict[BasicBlock, List[BasicBlock]] = {
            block: list(preds)
            for block, preds in analyses.preds(func).items()}
        self.size = func.instruction_count()
        self.pending: Dict[int, BasicBlock] = {}
        self.skipped = 0
        for block in self.region_blocks:
            self._refresh(block)

    def _in_region_preds(self, block: BasicBlock) -> List[BasicBlock]:
        region = self.region
        return [p for p in self.preds[block] if id(p) in region]

    def _refresh(self, block: BasicBlock) -> None:
        """Re-decide whether ``block`` is a pending merge."""
        if block is not self.header and id(block) not in self.inner and \
                len(self._in_region_preds(block)) >= 2:
            self.pending[id(block)] = block
        else:
            self.pending.pop(id(block), None)

    def skip(self, merge: BasicBlock) -> None:
        """Leave ``merge`` merged (judged unprofitable)."""
        del self.pending[id(merge)]
        self.skipped += 1

    def next_merge(self) -> Optional[BasicBlock]:
        """The first pending merge in the function's reverse postorder.

        Only blocks that can reach a pending merge without passing through
        the header ("live" blocks) can order pending merges: every other
        block reaches only blocks like itself, so dropping them from the
        depth-first search leaves the relative order of live blocks as it
        is.  The region is entered only through the header, so the search
        starts there.  The first pending merge in reverse postorder is the
        last one the search finishes.
        """
        if not self.pending:
            return None
        header, region, preds = self.header, self.region, self.preds
        live = set(self.pending)
        live.add(id(header))
        work = list(self.pending.values())
        while work:
            for pred in preds[work.pop()]:
                if id(pred) not in live and id(pred) in region:
                    live.add(id(pred))
                    work.append(pred)
        last: Optional[BasicBlock] = None
        visited = {id(header)}
        stack = [(header, iter(header.successors()))]
        while stack:
            block, succs = stack[-1]
            for succ in succs:
                if id(succ) in live and id(succ) not in visited:
                    visited.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    break
            else:
                stack.pop()
                if id(block) in self.pending:
                    last = block
        return last

    def duplicate_tail(self, merge: BasicBlock) -> None:
        """Give each in-region predecessor of ``merge`` its own copy of the
        tail.

        The tail is every block reachable from ``merge`` inside the region
        without crossing the back edge into the header.  The first
        predecessor keeps the original tail; each further predecessor gets
        a clone.
        """
        func, header, region, preds = (self.func, self.header, self.region,
                                       self.preds)
        in_region_preds = self._in_region_preds(merge)
        assert len(in_region_preds) >= 2

        tail = _tail_blocks(header, merge, region)
        tail_ids = {id(b) for b in tail}

        # Out-of-tail targets (the header and exit blocks) whose phis must
        # gain an entry per cloned predecessor: (tail block, phi, incoming
        # value from that block).
        boundary_entries: List[Tuple[BasicBlock, PhiInst, Value]] = []
        for block in tail:
            for succ in block.successors():
                if id(succ) not in tail_ids:
                    for phi in succ.phis():
                        boundary_entries.append(
                            (block, phi, phi.incoming_for(block)))

        keeper, *others = in_region_preds
        for j, pred in enumerate(others, start=1):
            clones, vmap = clone_blocks(func, tail, f"p{j}")
            # The clones sit at the end of the function, in tail order, so
            # appending keeps every predecessor list in block order.
            for original, clone in zip(tail, clones):
                region.add(id(clone))
                if id(original) in self.inner:
                    self.inner.add(id(clone))
                preds[clone] = []
            self.region_blocks.extend(clones)
            for clone in clones:
                seen: Set[int] = set()
                for succ in clone.successors():
                    if id(succ) not in seen:
                        seen.add(id(succ))
                        preds[succ].append(clone)
            # vmap keys currently mapped to each cloned phi, so a collapsed
            # phi can be forwarded without scanning the map.
            keys_of: Dict[int, List[int]] = {
                id(vmap[id(phi)]): [id(phi)]
                for original in tail for phi in original.phis()}
            # Rewire this predecessor into its private copy.
            term = pred.terminator
            assert term is not None
            new_merge = vmap[id(merge)]
            assert isinstance(new_merge, BasicBlock)
            term.replace_successor(merge, new_merge)
            preds[merge].remove(pred)
            preds[new_merge].insert(0, pred)
            # Collapse the cloned merge block's phis to this predecessor's
            # incoming values.
            for original_phi in merge.phis():
                cloned = vmap[id(original_phi)]
                assert isinstance(cloned, PhiInst)
                value = cloned.incoming_for(pred)
                cloned.replace_all_uses_with(value)
                cloned.erase_from_parent()
                _forward(vmap, keys_of, cloned, value)
            # Deeper cloned blocks may also have had predecessors outside
            # the tail; those edges still target the *original* blocks, so
            # their cloned phis must drop the stale incoming entries.
            clone_ids = {id(c) for c in clones}
            for clone in clones[1:]:
                for phi in list(clone.phis()):
                    for i in reversed(range(len(phi.incoming_blocks))):
                        if id(phi.incoming_blocks[i]) not in clone_ids:
                            phi.remove_operand(i)
                            del phi.incoming_blocks[i]
                    unique = phi.is_trivial()
                    if unique is not None:
                        phi.replace_all_uses_with(unique)
                        phi.erase_from_parent()
                        _forward(vmap, keys_of, phi, unique)
            # Boundary targets (header / exits) gain phi entries per clone.
            for block, phi, value in boundary_entries:
                mapped_block = vmap[id(block)]
                assert isinstance(mapped_block, BasicBlock)
                phi.add_incoming(map_value(vmap, value), mapped_block)
            self.size += sum(len(clone) for clone in clones)
            for clone in clones:
                self._refresh(clone)

        # The original merge keeps only the first predecessor: drop the other
        # incoming entries, then collapse now-trivial phis.
        for phi in list(merge.phis()):
            for pred in others:
                phi.remove_incoming(pred)
            unique = phi.is_trivial()
            if unique is not None:
                phi.replace_all_uses_with(unique)
                phi.erase_from_parent()
                self.size -= 1
        self._refresh(merge)


def _forward(vmap: Dict[int, Value], keys_of: Dict[int, List[int]],
             erased: Value, value: Value) -> None:
    """Point every vmap entry that maps to ``erased`` at ``value``."""
    keys = keys_of.pop(id(erased), [])
    for key in keys:
        vmap[key] = value
    if id(value) in keys_of:
        keys_of[id(value)].extend(keys)


def _tail_blocks(header: BasicBlock, merge: BasicBlock,
                 region: Set[int]) -> List[BasicBlock]:
    """Blocks reachable from ``merge`` inside the region, not via the header.

    Returned in deterministic DFS discovery order with ``merge`` first.
    """
    order: List[BasicBlock] = []
    seen = {id(merge), id(header)}
    stack = [merge]
    while stack:
        block = stack.pop()
        order.append(block)
        for succ in reversed(block.successors()):
            if id(succ) in seen or id(succ) not in region:
                continue
            seen.add(id(succ))
            stack.append(succ)
    return order


class UnmergePass:
    """Unmerge one specific loop (the paper's *unmerge* config)."""

    name = "unmerge"

    def __init__(self, loop_id: str, max_instructions: int = 60_000) -> None:
        self.loop_id = loop_id
        self.max_instructions = max_instructions

    def run(self, func: Function) -> bool:
        loop = analyses.loop_info(func).by_id(self.loop_id)
        if loop is None:
            obs.remark("missed", self.name, func.name, "loop not found",
                       loop_id=self.loop_id)
            return False
        claimed = set(func.attributes.get("uu_claimed_loops", ()))
        claimed.add(self.loop_id)
        func.attributes["uu_claimed_loops"] = claimed
        try:
            changed = unmerge_loop(func, loop, self.max_instructions)
        except UnmergeBudgetExceeded:
            return True
        if changed:
            obs.remark("applied", self.name, func.name, "unmerged loop",
                       loop_id=self.loop_id)
        return changed

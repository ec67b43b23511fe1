"""Dominator and post-dominator trees.

Implements the Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast
Dominance Algorithm").  The post-dominator tree treats every exit block
(``ret``/``unreachable``) as a predecessor of a virtual exit, which is what
the SIMT simulator uses to pick warp reconvergence points (immediate
post-dominator reconvergence, the hardware model the paper assumes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..ir.block import BasicBlock
from ..ir.function import Function
from . import manager


class DominatorTree:
    """Immediate-dominator tree over the reachable CFG."""

    def __init__(self, idom: Dict[int, Optional[BasicBlock]],
                 order_index: Dict[int, int],
                 blocks: List[BasicBlock]) -> None:
        self._idom = idom
        self._order_index = order_index
        self._blocks = blocks
        self._children: Dict[int, List[BasicBlock]] = {}
        for block in blocks:
            parent = idom.get(id(block))
            if parent is not None and parent is not block:
                self._children.setdefault(id(parent), []).append(block)

    # -- construction -----------------------------------------------------
    @classmethod
    def compute(cls, func: Function) -> "DominatorTree":
        rpo = manager.rpo(func)
        preds = manager.preds(func)
        return cls._run(rpo, lambda b: preds[b], rpo[0])

    @classmethod
    def compute_post(cls, func: Function) -> "PostDominatorTree":
        return PostDominatorTree.compute(func)

    @classmethod
    def _run(cls, rpo: List[BasicBlock], preds_fn, root: BasicBlock
             ) -> "DominatorTree":
        order_index = {id(b): i for i, b in enumerate(rpo)}
        idom: Dict[int, Optional[BasicBlock]] = {id(root): root}

        def intersect(b1: BasicBlock, b2: BasicBlock) -> BasicBlock:
            while b1 is not b2:
                while order_index[id(b1)] > order_index[id(b2)]:
                    b1 = idom[id(b1)]  # type: ignore[assignment]
                while order_index[id(b2)] > order_index[id(b1)]:
                    b2 = idom[id(b2)]  # type: ignore[assignment]
            return b1

        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is root:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in preds_fn(block):
                    if id(pred) not in order_index:
                        continue  # Unreachable predecessor.
                    if id(pred) in idom:
                        if new_idom is None:
                            new_idom = pred
                        else:
                            new_idom = intersect(pred, new_idom)
                if new_idom is not None and idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True
        tree = cls(idom, order_index, rpo)
        tree._root = root
        return tree

    _root: BasicBlock

    # -- queries -----------------------------------------------------------
    @property
    def root(self) -> BasicBlock:
        return self._root

    def reachable_ids(self) -> Iterable[int]:
        return self._order_index.keys()

    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self._order_index

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator (None for the root or unreachable blocks)."""
        parent = self._idom.get(id(block))
        if parent is block:
            return None
        return parent

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return self._children.get(id(block), [])

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        if id(a) not in self._order_index or id(b) not in self._order_index:
            return False
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            parent = self._idom.get(id(node))
            node = None if parent is node else parent
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def dominance_frontier(self) -> Dict[int, Set[BasicBlock]]:
        """Dominance frontiers (Cooper et al. §4), keyed by block id."""
        frontier: Dict[int, Set[BasicBlock]] = {id(b): set() for b in self._blocks}
        func = self._blocks[0].parent
        assert func is not None
        preds = manager.preds(func)
        for block in self._blocks:
            block_preds = [p for p in preds[block] if self.is_reachable(p)]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom(block):
                    frontier[id(runner)].add(block)
                    runner = self.idom(runner)
        return frontier

    def preorder(self) -> List[BasicBlock]:
        """Dominator-tree preorder (parents before children)."""
        order: List[BasicBlock] = []
        stack = [self._root]
        while stack:
            block = stack.pop()
            order.append(block)
            children = self.children(block)
            stack.extend(reversed(children))
        return order


class PostDominatorTree:
    """Post-dominator tree over a CFG with a virtual unified exit."""

    def __init__(self, ipdom: Dict[int, Optional[BasicBlock]],
                 blocks: List[BasicBlock]) -> None:
        self._ipdom = ipdom
        self._blocks = blocks

    @classmethod
    def compute(cls, func: Function) -> "PostDominatorTree":
        # Build the reverse CFG restricted to blocks that reach an exit;
        # infinite loops post-dominate nothing and get no ipdom entry.
        exits = [b for b in func.blocks
                 if b.terminator is not None and not b.successors()]
        if not exits:
            return cls({}, list(func.blocks))

        succs: Dict[int, List[BasicBlock]] = {
            id(b): b.successors() for b in func.blocks}

        # Reverse postorder of the reverse CFG, starting from a virtual exit.
        # In the reverse graph an edge runs succ -> pred, so the "preds" of a
        # node are its forward successors and vice versa.
        virtual = BasicBlock("__virtual_exit__")

        forward_preds: Dict[int, List[BasicBlock]] = {}
        for block in func.blocks:
            for succ in succs[id(block)]:
                forward_preds.setdefault(id(succ), []).append(block)
        exit_ids = {id(b) for b in exits}

        def r_successors(block: BasicBlock) -> List[BasicBlock]:
            # Edges out of a node in the reverse graph.
            if block is virtual:
                return exits
            return forward_preds.get(id(block), [])

        def r_predecessors(block: BasicBlock) -> List[BasicBlock]:
            # Edges into a node in the reverse graph.
            if block is virtual:
                return []
            result = list(succs[id(block)])
            if id(block) in exit_ids:
                result.append(virtual)
            return result

        # Postorder DFS over the reverse CFG from the virtual exit.
        order: List[BasicBlock] = []
        visited = {id(virtual)}
        stack = [(virtual, iter(r_successors(virtual)))]
        while stack:
            block, it = stack[-1]
            advanced = False
            for nxt in it:
                if id(nxt) not in visited:
                    visited.add(id(nxt))
                    stack.append((nxt, iter(r_successors(nxt))))
                    advanced = True
                    break
            if not advanced:
                order.append(block)
                stack.pop()
        order.reverse()  # Reverse postorder of reverse CFG.

        tree = DominatorTree._run(order, r_predecessors, virtual)
        ipdom: Dict[int, Optional[BasicBlock]] = {}
        for block in func.blocks:
            if not tree.is_reachable(block):
                continue
            parent = tree.idom(block)
            ipdom[id(block)] = None if parent is virtual else parent
        return cls(ipdom, list(func.blocks))

    def ipdom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate post-dominator (None if the virtual exit)."""
        return self._ipdom.get(id(block))

    def post_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` post-dominates ``b`` (reflexive)."""
        node: Optional[BasicBlock] = b
        seen: Set[int] = set()
        while node is not None and id(node) not in seen:
            if node is a:
                return True
            seen.add(id(node))
            node = self._ipdom.get(id(node))
        return False

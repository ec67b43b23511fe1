"""Dominator-scoped global value numbering with branch-fact propagation.

This pass is what turns u&u's structural duplication into actual instruction
elimination.  It walks the dominator tree with a scoped available-expression
table (classic dominator-based GVN) and, crucially, installs *branch facts*
on single-predecessor edges: when block ``B`` is only reachable as the true
target of ``br %c, T, F``, then inside ``B``'s dominance region ``%c`` is
``true``, any identical comparison re-evaluation folds to ``true``, the
negated comparison folds to ``false``, and an ``icmp eq x, C`` fact
substitutes ``C`` for ``x``.

Control-flow *merges destroy exactly these facts* — a merge block has
multiple predecessors, so no edge fact applies (the paper's core
observation, Section I).  Unmerging makes every duplicated path
single-predecessor, which is why this pass fires so much more often after
u&u than after plain unrolling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import manager as analyses
from ..ir.block import BasicBlock
from ..ir.constants import (Constant, ConstantInt, FALSE, TRUE, bool_const)
from ..ir.function import Function
from ..ir.instructions import (BinaryInst, CondBranchInst, FCmpInst, ICmpInst,
                               Instruction, PhiInst, TerminatorInst)
from ..ir.values import Value
from ..obs import session as obs
from .fold import fold_instruction
from .instcombine import simplify_instruction


class _Scopes:
    """Scoped dictionaries with an undo log per dominator-tree level."""

    def __init__(self) -> None:
        self.available: Dict[Tuple, Value] = {}
        self.replacements: Dict[int, Value] = {}
        self._undo: List[List[Tuple[str, object, object]]] = []

    def push(self) -> None:
        self._undo.append([])

    def pop(self) -> None:
        for kind, key, old in reversed(self._undo.pop()):
            table = self.available if kind == "avail" else self.replacements
            if old is _MISSING:
                del table[key]  # type: ignore[arg-type]
            else:
                table[key] = old  # type: ignore[assignment,index]

    def set_available(self, key: Tuple, value: Value) -> None:
        old = self.available.get(key, _MISSING)
        self._undo[-1].append(("avail", key, old))
        self.available[key] = value

    def set_replacement(self, value: Value, replacement: Value) -> None:
        key = id(value)
        old = self.replacements.get(key, _MISSING)
        self._undo[-1].append(("repl", key, old))
        self.replacements[key] = replacement

    def lookup(self, value: Value) -> Value:
        seen = 0
        while True:
            repl = self.replacements.get(id(value))
            if repl is None or repl is value:
                return value
            value = repl
            seen += 1
            if seen > 32:  # Defensive: replacement chains are tiny.
                return value


_MISSING = object()


class GlobalValueNumbering:
    """GVN + branch-fact propagation (see module docstring).

    ``branch_facts=False`` disables the edge-fact machinery (plain
    dominator-scoped value numbering) — used by the ablation benchmarks to
    quantify how much of u&u's benefit flows through provenance facts.
    """

    name = "gvn"

    def __init__(self, branch_facts: bool = True) -> None:
        self.branch_facts = branch_facts

    def run(self, func: Function) -> bool:
        domtree = analyses.domtree(func)
        scopes = _Scopes()
        self._changed = False
        self._rewrites = 0     # Operand substitutions via facts/leaders.
        self._simplified = 0   # Instructions folded away locally.
        self._cse = 0          # Instructions replaced by a dominating leader.
        pred_map = analyses.preds(func)

        # Iterative dominator-tree DFS: (enter, block) / (exit, block).
        stack: List[Tuple[str, BasicBlock]] = [("enter", domtree.root)]
        while stack:
            action, block = stack.pop()
            if action == "exit":
                scopes.pop()
                continue
            scopes.push()
            stack.append(("exit", block))
            self._enter_block(block, pred_map.get(block, []), scopes)
            self._process_block(block, scopes)
            for child in reversed(domtree.children(block)):
                stack.append(("enter", child))
        if self._changed and obs.active() is not None:
            obs.remark(
                "analysis", self.name, func.name,
                "eliminated redundancies",
                rewrites=self._rewrites, simplified=self._simplified,
                cse=self._cse, branch_facts=self.branch_facts)
        return self._changed

    # -- branch facts -----------------------------------------------------
    def _enter_block(self, block: BasicBlock, preds: List[BasicBlock],
                     scopes: _Scopes) -> None:
        if not self.branch_facts:
            return
        if len(preds) != 1:
            return
        pred = preds[0]
        term = pred.terminator
        if not isinstance(term, CondBranchInst):
            return
        # The edge must be unambiguous: block reached only as true target or
        # only as false target.
        if term.true_target is block and term.false_target is block:
            return
        branch_value = term.true_target is block
        cond = scopes.lookup(term.condition)
        self._install_fact(cond, branch_value, scopes)

    def _install_fact(self, cond: Value, truth: bool, scopes: _Scopes) -> None:
        constant = bool_const(truth)
        if isinstance(cond, Constant):
            return
        scopes.set_replacement(cond, constant)
        if isinstance(cond, (ICmpInst, FCmpInst)):
            key = cond.value_key()
            if key is not None:
                scopes.set_available(key, constant)
                negated = self._negated_key(cond)
                if negated is not None:
                    scopes.set_available(negated, bool_const(not truth))
            # Equality facts substitute constants for values on this path.
            if isinstance(cond, ICmpInst):
                if (cond.predicate == "eq" and truth) or \
                        (cond.predicate == "ne" and not truth):
                    self._install_equality(cond.lhs, cond.rhs, scopes)

    @staticmethod
    def _install_equality(lhs: Value, rhs: Value, scopes: _Scopes) -> None:
        if isinstance(rhs, Constant) and not isinstance(lhs, Constant):
            scopes.set_replacement(lhs, rhs)
        elif isinstance(lhs, Constant) and not isinstance(rhs, Constant):
            scopes.set_replacement(rhs, lhs)

    @staticmethod
    def _negated_key(cond) -> Optional[Tuple]:
        ops = (id(cond.lhs), id(cond.rhs))
        extra = (cond.negated_predicate(),)
        return (cond.opcode, extra, ops)

    # -- per-block numbering -----------------------------------------------
    def _process_block(self, block: BasicBlock, scopes: _Scopes) -> None:
        for inst in list(block.instructions):
            if inst.parent is None:
                continue
            # Rewrite operands through the replacement map.  Phi operands
            # flow along *edges*, not through this block, so facts valid
            # here must not rewrite them.
            if not isinstance(inst, PhiInst):
                for i, op in enumerate(inst.operands):
                    repl = scopes.lookup(op)
                    if repl is not op:
                        inst.set_operand(i, repl)
                        self._changed = True
                        self._rewrites += 1
            if isinstance(inst, (PhiInst, TerminatorInst)):
                continue
            if not inst.is_pure:
                continue
            # Try local simplification first (constant folding, algebra).
            simplified = simplify_instruction(inst)
            if simplified is not None and simplified is not inst:
                inst.replace_all_uses_with(simplified)
                inst.erase_from_parent()
                self._changed = True
                self._simplified += 1
                continue
            key = inst.value_key()
            if key is None:
                continue
            leader = scopes.available.get(key)
            if leader is not None:
                inst.replace_all_uses_with(leader)
                inst.erase_from_parent()
                self._changed = True
                self._cse += 1
            else:
                scopes.set_available(key, inst)


def run_gvn(func: Function) -> bool:
    """Convenience wrapper."""
    return GlobalValueNumbering().run(func)

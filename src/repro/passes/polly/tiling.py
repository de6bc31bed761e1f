"""SCoP detection and rectangular loop tiling (the Polly-lite core).

A *tilable nest* is a perfect nest of ``for`` loops with

- canonical induction: ``for (T i = L; i < U; i++)`` (or ``++i``/``i+=1``)
  with loop-invariant bounds,
- a body consisting only of assignments/compound-assignments whose array
  accesses are *affine-canonical* in the induction variables, and
- a dependence pattern the conservative legality test accepts: every
  array that is written is accessed (read or written) through **one**
  canonical index expression.  Then all dependences are loop-independent,
  the nest is fully permutable, and rectangular tiling is legal.

This test deliberately rejects stencils with shifted self-accesses
(adi-style) and triangular factorizations (ludcmp) -- mirroring where
real Polly bails out or mis-tunes in the paper's Fig. 1/2 discussion.

Tiling ``for(i=L;i<U;i++)`` by ``T`` produces::

    for (TY it = L; it < U; it += T)
      for (TY i = it; i < (it+T < U ? it+T : U); i++)
        ...
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...lang import ast
from ...lang.ctypes import IntT

DEFAULT_TILE = 16


@dataclass
class LoopNest:
    """A perfect nest: loops outermost-first plus the innermost body."""

    loops: List[ast.For]
    body: ast.Stmt
    induction_vars: List[str]


class PollyLite:
    """Apply tiling to every legal nest in a translation unit."""

    def __init__(self, tile_size: int = DEFAULT_TILE, min_depth: int = 2):
        if tile_size < 1:
            # A zero or negative step never leaves the tile loop.
            raise ValueError(f"tile size must be >= 1, got {tile_size}")
        self.tile_size = tile_size
        self.min_depth = min_depth
        self.tiled_nests = 0

    def run(self, unit: ast.TranslationUnit) -> int:
        for func in unit.functions():
            if func.body is not None:
                self._walk_block(func.body)
        return self.tiled_nests

    # ------------------------------------------------------------ #

    def _walk_block(self, block: ast.Block) -> None:
        for i, stmt in enumerate(block.statements):
            replacement = self._try_stmt(stmt)
            if replacement is not None:
                block.statements[i] = replacement
            elif isinstance(stmt, ast.Block):
                self._walk_block(stmt)
            elif isinstance(stmt, ast.If):
                self._walk_nested(stmt.then_body)
                if stmt.else_body is not None:
                    self._walk_nested(stmt.else_body)
            elif isinstance(stmt, (ast.While, ast.DoWhile)):
                self._walk_nested(stmt.body)
            elif isinstance(stmt, ast.For):
                self._walk_nested(stmt.body)

    def _walk_nested(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._walk_block(stmt)
        else:
            wrapper = ast.Block(statements=[stmt])
            self._walk_block(wrapper)

    def _try_stmt(self, stmt: ast.Stmt) -> Optional[ast.Stmt]:
        if not isinstance(stmt, ast.For):
            return None
        nest = _match_nest(stmt)
        if nest is None or len(nest.loops) < self.min_depth:
            return None
        if not _legal_to_tile(nest):
            return None
        self.tiled_nests += 1
        return _tile_nest(nest, self.tile_size)


# ----------------------------------------------------------------- #
# Nest matching
# ----------------------------------------------------------------- #

def _match_nest(loop: ast.For) -> Optional[LoopNest]:
    loops: List[ast.For] = []
    vars_: List[str] = []
    current: ast.Stmt = loop
    while isinstance(current, ast.For):
        shape = _canonical_loop(current)
        if shape is None:
            break
        # Rectangular tiling requires bounds invariant in the whole nest:
        # a triangular inner bound (j < i) would reference a point-loop
        # variable from a tile-loop header.
        if any(_mentions(current.cond.rhs, outer) for outer in vars_) or \
                any(_mentions(current.init.decls[0].init, outer)
                    for outer in vars_):
            break
        loops.append(current)
        vars_.append(shape)
        body = current.body
        inner = _single_statement(body)
        if isinstance(inner, ast.For):
            current = inner
        else:
            current = body
            break
    if not loops:
        return None
    return LoopNest(loops=loops, body=loops[-1].body, induction_vars=vars_)


def _single_statement(stmt: ast.Stmt) -> Optional[ast.Stmt]:
    if isinstance(stmt, ast.Block):
        if len(stmt.statements) == 1:
            return _single_statement(stmt.statements[0])
        return None
    return stmt


def _canonical_loop(loop: ast.For) -> Optional[str]:
    """Return the induction variable name for for(T i=L; i<U; i++)."""
    if loop.omp_parallel:
        return None  # keep parallel loops intact for the OpenMP model
    if not isinstance(loop.init, ast.DeclStmt) or len(loop.init.decls) != 1:
        return None
    decl = loop.init.decls[0]
    if not isinstance(decl.type, IntT) or decl.init is None:
        return None
    name = decl.name
    cond = loop.cond
    if not isinstance(cond, ast.Binary) or cond.op != "<":
        return None
    if not (isinstance(cond.lhs, ast.Ident) and cond.lhs.name == name):
        return None
    if _mentions(cond.rhs, name):
        return None  # bound depends on the induction variable
    step = loop.step
    if isinstance(step, ast.Unary) and step.op == "++" and \
            isinstance(step.operand, ast.Ident) and \
            step.operand.name == name:
        return name
    if isinstance(step, ast.Assign) and step.op == "+=" and \
            isinstance(step.target, ast.Ident) and \
            step.target.name == name and \
            isinstance(step.value, ast.IntLit) and step.value.value == 1:
        return name
    return None


def _mentions(expr: ast.Expr, name: str) -> bool:
    if isinstance(expr, ast.Ident):
        return expr.name == name
    for child in _children(expr):
        if _mentions(child, name):
            return True
    return False


def _children(expr: ast.Expr):
    if isinstance(expr, ast.Binary):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, ast.Unary):
        return [expr.operand]
    if isinstance(expr, ast.Assign):
        return [expr.target, expr.value]
    if isinstance(expr, ast.Index):
        return [expr.base, expr.index]
    if isinstance(expr, ast.Call):
        return list(expr.args)
    if isinstance(expr, ast.Cast):
        return [expr.expr]
    if isinstance(expr, ast.Ternary):
        return [expr.cond, expr.true_expr, expr.false_expr]
    if isinstance(expr, (ast.Deref, ast.AddressOf)):
        return [expr.operand]
    return []


# ----------------------------------------------------------------- #
# Legality: the single-canonical-index dependence test
# ----------------------------------------------------------------- #

def _legal_to_tile(nest: LoopNest) -> bool:
    accesses: Dict[str, Dict[str, set]] = {}
    locals_declared: set = set()
    if not _collect_accesses(nest.body, accesses, locals_declared,
                             nest.induction_vars):
        return False
    for array, kinds in accesses.items():
        if "w" not in kinds:
            continue  # read-only arrays never constrain
        index_forms = kinds.get("w", set()) | kinds.get("r", set())
        if len(index_forms) != 1:
            return False
    # Scalar variables written inside the body must be declared inside it
    # (expression temporaries) -- otherwise a loop-carried scalar
    # dependence (a reduction across a tiled loop) could be reordered.
    return True


def _collect_accesses(stmt: ast.Stmt, accesses, locals_declared,
                      induction_vars) -> bool:
    if isinstance(stmt, ast.Block):
        return all(_collect_accesses(s, accesses, locals_declared,
                                     induction_vars)
                   for s in stmt.statements)
    if isinstance(stmt, ast.DeclStmt):
        for decl in stmt.decls:
            locals_declared.add(decl.name)
            if decl.init is not None and not _scan_expr(
                    decl.init, "r", accesses, locals_declared,
                    induction_vars):
                return False
        return True
    if isinstance(stmt, ast.ExprStmt):
        return _scan_expr(stmt.expr, "r", accesses, locals_declared,
                          induction_vars)
    return False  # control flow inside the body: bail out


def _scan_expr(expr: ast.Expr, mode: str, accesses, locals_declared,
               induction_vars) -> bool:
    if isinstance(expr, ast.Assign):
        target = expr.target
        if isinstance(target, ast.Index):
            if not _record_access(target, "w", accesses, induction_vars):
                return False
            # Compound assignment also reads the target.
            if expr.op != "=" and not _record_access(
                    target, "r", accesses, induction_vars):
                return False
            if not _scan_expr(target.base, "r", accesses, locals_declared,
                              induction_vars):
                return False
            if not _scan_expr(target.index, "r", accesses, locals_declared,
                              induction_vars):
                return False
        elif isinstance(target, ast.Ident):
            if target.name not in locals_declared:
                return False  # scalar reduction across the nest: illegal
        else:
            return False
        return _scan_expr(expr.value, "r", accesses, locals_declared,
                          induction_vars)
    if isinstance(expr, ast.Index):
        if not _record_access(expr, "r", accesses, induction_vars):
            return False
        return _scan_expr(expr.base, "r", accesses, locals_declared,
                          induction_vars) and \
            _scan_expr(expr.index, "r", accesses, locals_declared,
                       induction_vars)
    if isinstance(expr, ast.Call):
        return False  # opaque side effects
    for child in _children(expr):
        if not _scan_expr(child, "r", accesses, locals_declared,
                          induction_vars):
            return False
    return True


def _record_access(index_expr: ast.Index, mode: str, accesses,
                   induction_vars) -> bool:
    base, canon = _canonical_access(index_expr)
    if base is None:
        return False
    entry = accesses.setdefault(base, {})
    entry.setdefault(mode, set()).add(canon)
    return True


def _canonical_access(expr: ast.Index) -> Tuple[Optional[str], str]:
    """(base array name, canonical index string) or (None, '')."""
    indices = []
    current: ast.Expr = expr
    while isinstance(current, ast.Index):
        indices.append(_canon(current.index))
        current = current.base
    if not isinstance(current, ast.Ident):
        return None, ""
    if any(c is None for c in indices):
        return None, ""
    return current.name, "[" + "][".join(reversed(indices)) + "]"


def _canon(expr: ast.Expr) -> Optional[str]:
    """Canonical string of an affine-ish index expression."""
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-", "*"):
        lhs = _canon(expr.lhs)
        rhs = _canon(expr.rhs)
        if lhs is None or rhs is None:
            return None
        if expr.op in ("+", "*") and rhs < lhs:
            lhs, rhs = rhs, lhs  # commutative normal form
        return f"({lhs}{expr.op}{rhs})"
    if isinstance(expr, ast.Cast):
        return _canon(expr.expr)
    return None


# ----------------------------------------------------------------- #
# The tiling transformation
# ----------------------------------------------------------------- #

def _tile_nest(nest: LoopNest, tile: int) -> ast.Stmt:
    """Rebuild the nest as tile loops (outer) + point loops (inner)."""
    point_loops: List[ast.For] = []
    tile_loops: List[ast.For] = []
    for loop, var in zip(nest.loops, nest.induction_vars):
        decl = loop.init.decls[0]
        tile_var = f"{var}__t"
        lower = decl.init
        upper = loop.cond.rhs
        int_type = decl.type
        tile_loop = ast.For(
            init=ast.DeclStmt(decls=[ast.VarDecl(
                name=tile_var, type=int_type, init=copy.deepcopy(lower))]),
            cond=ast.Binary(op="<", lhs=ast.Ident(name=tile_var),
                            rhs=copy.deepcopy(upper)),
            step=ast.Assign(op="+=", target=ast.Ident(name=tile_var),
                            value=ast.IntLit(value=tile)),
            body=None,
        )
        tile_end = ast.Binary(op="+", lhs=ast.Ident(name=tile_var),
                              rhs=ast.IntLit(value=tile))
        bounded = ast.Ternary(
            cond=ast.Binary(op="<", lhs=copy.deepcopy(tile_end),
                            rhs=copy.deepcopy(upper)),
            true_expr=copy.deepcopy(tile_end),
            false_expr=copy.deepcopy(upper),
        )
        point_loop = ast.For(
            init=ast.DeclStmt(decls=[ast.VarDecl(
                name=var, type=int_type,
                init=ast.Ident(name=tile_var))]),
            cond=ast.Binary(op="<", lhs=ast.Ident(name=var), rhs=bounded),
            step=ast.Unary(op="++", operand=ast.Ident(name=var)),
            body=None,
        )
        tile_loops.append(tile_loop)
        point_loops.append(point_loop)

    # Assemble: tile loops outermost, then point loops, then the body.
    current: ast.Stmt = nest.body
    for loop in reversed(point_loops):
        loop.body = current
        current = loop
    for loop in reversed(tile_loops):
        loop.body = current
        current = loop
    return current


def find_tilable_nests(unit: ast.TranslationUnit,
                       min_depth: int = 2) -> List[LoopNest]:
    """Report (without transforming) the nests Polly-lite would tile."""
    found: List[LoopNest] = []

    def scan(stmt):
        if isinstance(stmt, ast.For):
            nest = _match_nest(stmt)
            if nest is not None and len(nest.loops) >= min_depth and \
                    _legal_to_tile(nest):
                found.append(nest)
                return
        for child in _stmt_children(stmt):
            scan(child)

    for func in unit.functions():
        if func.body is not None:
            scan(func.body)
    return found


def _stmt_children(stmt):
    if isinstance(stmt, ast.Block):
        return stmt.statements
    if isinstance(stmt, ast.For):
        return [stmt.body]
    if isinstance(stmt, (ast.While, ast.DoWhile)):
        return [stmt.body]
    if isinstance(stmt, ast.If):
        return [stmt.then_body] + ([stmt.else_body]
                                   if stmt.else_body else [])
    return []


def optimize_unit(unit: ast.TranslationUnit,
                  tile_size: int = DEFAULT_TILE) -> int:
    """Run Polly-lite; returns the number of tiled nests (ValueError
    for a tile size below 1).

    NOTE: the unit must be re-analyzed (sema) afterwards because tiling
    introduces new declarations.
    """
    return PollyLite(tile_size).run(unit)

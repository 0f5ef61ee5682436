"""Propositional decision procedure.

Tseitin transformation of Boolean expression circuits into CNF plus a
complete incremental CDCL solver (watched literals, first-UIP clause
learning, Luby restarts inside conflict-budgeted attempts that rephase
between attempts).  Everything is deterministic for a fixed formula,
clause-addition order, assumption list and seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .blocks import And, BoolExpr, Const, Not, Or, UnboundVariable, Var, Xor

SatVar = int  # 1-based variable index


@dataclass(frozen=True)
class Literal:
    var: SatVar
    negated: bool = False

    def __post_init__(self):
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    def __neg__(self) -> "Literal":
        return Literal(self.var, not self.negated)

    def to_int(self) -> int:
        return -self.var if self.negated else self.var

    @classmethod
    def from_int(cls, lit: int) -> "Literal":
        return cls(abs(lit), lit < 0)


@dataclass(frozen=True)
class CnfFormula:
    """Immutable clause set; clauses are tuples of signed variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses",
                           tuple(tuple(c) for c in self.clauses))
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause; represent unsatisfiability explicitly")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range (num_vars={self.num_vars})")


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    model: Optional[dict[int, bool]] = None

    @classmethod
    def sat(cls, model: dict[int, bool]) -> "SatResult":
        return cls(True, model)

    @classmethod
    def unsat(cls) -> "SatResult":
        return cls(False, None)


def to_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Tseitin transformation


class TseitinEncoder:
    """Accumulates definition clauses for one or more expression roots.

    Structurally shared subexpressions (same object) are encoded once.
    """

    def __init__(self, var_map: Mapping[str, SatVar],
                 first_fresh: Optional[int] = None):
        self.var_map = dict(var_map)
        if first_fresh is None:
            first_fresh = max(self.var_map.values(), default=0) + 1
        self._next = first_fresh
        self.clauses: list[tuple[int, ...]] = []
        self._memo: dict[int, int] = {}
        self._keepalive: list[BoolExpr] = []

    def fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    @property
    def num_vars(self) -> int:
        return self._next - 1

    def add_clause(self, *lits: int) -> None:
        self.clauses.append(lits)

    def assert_true(self, expr: BoolExpr) -> None:
        """Constrain the expression to hold, flattening top-level
        conjunctions into separate clauses and disjunctions into single
        clauses (instead of gate cascades)."""
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, And):
                stack.append(node.left)
                stack.append(node.right)
                continue
            if isinstance(node, Const):
                if node.value:
                    continue
                v = self.fresh()
                self.add_clause(v)
                self.add_clause(-v)
                continue
            lits: list[int] = []
            disj = [node]
            while disj:
                leaf = disj.pop()
                if isinstance(leaf, Or):
                    disj.append(leaf.left)
                    disj.append(leaf.right)
                elif isinstance(leaf, Const):
                    if leaf.value:
                        lits = []
                        break
                else:
                    lits.append(self.encode(leaf))
            if lits:
                self.add_clause(*lits)

    def encode(self, expr: BoolExpr) -> int:
        """Returns a signed literal equivalent to the expression."""
        key = id(expr)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, Var):
            try:
                lit = self.var_map[expr.name]
            except KeyError:
                raise UnboundVariable(expr.name) from None
        elif isinstance(expr, Const):
            v = self.fresh()
            self.add_clause(v if expr.value else -v)
            lit = v
        elif isinstance(expr, Not):
            lit = -self.encode(expr.operand)
        else:
            a = self.encode(expr.left)
            b = self.encode(expr.right)
            v = self.fresh()
            if isinstance(expr, And):
                self.add_clause(-v, a)
                self.add_clause(-v, b)
                self.add_clause(v, -a, -b)
            elif isinstance(expr, Or):
                self.add_clause(-v, a, b)
                self.add_clause(v, -a)
                self.add_clause(v, -b)
            elif isinstance(expr, Xor):
                self.add_clause(-v, a, b)
                self.add_clause(-v, -a, -b)
                self.add_clause(v, a, -b)
                self.add_clause(v, -a, b)
            else:
                raise TypeError(f"not a BoolExpr: {expr!r}")
            lit = v
        self._memo[key] = lit
        self._keepalive.append(expr)
        return lit

    def formula(self) -> CnfFormula:
        return CnfFormula(self.num_vars, tuple(self.clauses))


def tseitin(root: BoolExpr, var_map: Mapping[str, SatVar]) -> tuple[CnfFormula, Literal]:
    """Equisatisfiable CNF for the circuit rooted at `root`.

    Asserting the returned root literal constrains the expression to true;
    fresh variables are numbered after the highest index in var_map.
    """
    enc = TseitinEncoder(var_map)
    lit = enc.encode(root)
    return enc.formula(), Literal.from_int(lit)


# --------------------------------------------------------------------------
# CDCL solver


def _lit_code(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _luby(i: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class CdclSolver:
    """Conflict-driven clause learning over a formula that may grow
    between solve() calls through extend().

    Decisions follow conflict-driven variable activities (ties and the
    conflict-free start fall back to the lowest unassigned index); the
    default polarity is false, perturbed per variable only by a nonzero
    seed.  Everything is deterministic for fixed inputs and seed.  A
    solver instance holds mutable search state and is not shareable
    across concurrent callers.
    """

    VAR_DECAY = 0.95

    def __init__(self, formula: CnfFormula, seed: int = 0):
        self.num_vars = 0
        self.seed = seed
        self.values: list[Optional[bool]] = [None]
        self.levels = [0]
        self.reasons: list[Optional[int]] = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[int]] = [[], []]
        self.clauses: list[Optional[list[int]]] = []
        self.original: list[tuple[int, ...]] = []
        self.ok = True
        self._order_head = 1
        self.activity = [0.0]
        self._var_inc = 1.0
        self._heap: list[tuple[float, int]] = []
        self.polarity = [False]
        self._is_learned: list[bool] = []
        self._stamps: list[int] = []
        self._learned_alive = 0
        self._max_learned = 4000
        self._conflict_count = 0
        self.extend(formula.num_vars, formula.clauses)

    # flip densities for the rephasing ladder; 0 means pure false-first
    _PHASE_DENSITIES = (16, 0, 8, 32, 4, 64)

    def _polarity_for(self, var: int, attempt: int = 0) -> bool:
        # false-first with a sparse, seed-keyed flip: enough to diversify
        # runs without fighting the mostly-false structure of selector vars
        salt = self.seed * 40503 + attempt * 915561
        if self.seed == 0 and attempt == 0:
            return False
        density = self._PHASE_DENSITIES[attempt % len(self._PHASE_DENSITIES)]
        if density == 0:
            return False
        return (var * 2654435761 + salt) % density == 0

    def extend(self, num_vars: int, clauses: Iterable[tuple[int, ...]]) -> None:
        """Grow the variable range and conjoin clauses permanently.

        Learned clauses stay valid because additions only strengthen the
        formula.  Must be called between solve() calls.  Once level-0
        assignments have been propagated, new clauses are simplified against
        them (as MiniSat's addClause does): satisfied clauses are skipped
        and false literals dropped, since the watch scheme never revisits a
        literal that was already false when its clause arrived.
        """
        if num_vars < self.num_vars:
            raise ValueError("cannot shrink the variable range")
        self._cancel_until(0)
        # a one-shot load has propagated nothing yet; skip the filter there
        simplify = self.qhead > 0
        grow = num_vars - self.num_vars
        if grow:
            self.values += [None] * grow
            self.levels += [0] * grow
            self.reasons += [None] * grow
            self.activity += [0.0] * grow
            self.polarity += [self._polarity_for(v)
                              for v in range(self.num_vars + 1, num_vars + 1)]
            self.watches += [[] for _ in range(2 * grow)]
            self.num_vars = num_vars
        for clause in clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")
            self.original.append(tuple(clause))
            if not self.ok:
                continue
            lits = list(dict.fromkeys(clause))
            if any(-lit in lits for lit in lits):
                continue  # tautology
            if simplify:
                vals = [self._lit_value(lit) for lit in lits]
                if True in vals:
                    continue
                lits = [lit for lit, val in zip(lits, vals) if val is None]
                if not lits:
                    self.ok = False
                    continue
            if len(lits) == 1:
                if not self._assert_unit(lits[0]):
                    self.ok = False
            else:
                ci = len(self.clauses)
                self.clauses.append(lits)
                self._is_learned.append(False)
                self._stamps.append(0)
                self.watches[_lit_code(lits[0])].append(ci)
                self.watches[_lit_code(lits[1])].append(ci)

    # -- assignment primitives

    def _lit_value(self, lit: int) -> Optional[bool]:
        v = self.values[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def _assert_unit(self, lit: int) -> bool:
        val = self._lit_value(lit)
        if val is False:
            return False
        if val is None:
            self._enqueue(lit, None)
        return True

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        var = abs(lit)
        self.values[var] = lit > 0
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)

    def _cancel_until(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        lim = self.trail_lim[level]
        push = heapq.heappush
        heap = self._heap
        activity = self.activity
        for lit in reversed(self.trail[lim:]):
            var = abs(lit)
            self.values[var] = None
            self.reasons[var] = None
            if activity[var] > 0.0:
                push(heap, (-activity[var], var))
            if var < self._order_head:
                self._order_head = var
        del self.trail[lim:]
        del self.trail_lim[level:]
        self.qhead = lim

    def _bump(self, var: int) -> None:
        act = self.activity[var] + self._var_inc
        self.activity[var] = act
        if act > 1e100:
            scale = 1e-100
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= scale
            self._var_inc *= scale
            fresh = [(-self.activity[v], v) for v in range(1, self.num_vars + 1)
                     if self.values[v] is None and self.activity[v] > 0.0]
            heapq.heapify(fresh)
            self._heap = fresh
            return
        if self.values[var] is None:
            heapq.heappush(self._heap, (-act, var))

    # -- search

    def _propagate(self) -> Optional[int]:
        values = self.values
        clauses = self.clauses
        watches = self.watches
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            wl = watches[_lit_code(-p)]
            i = j = 0
            n = len(wl)
            while i < n:
                ci = wl[i]
                i += 1
                c = clauses[ci]
                if c[0] == -p:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                fvar = values[abs(first)]
                fval = None if fvar is None else (fvar if first > 0 else not fvar)
                if fval is True:
                    wl[j] = ci
                    j += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    lk = c[k]
                    vk = values[abs(lk)]
                    if vk is None or (vk if lk > 0 else not vk):
                        c[1], c[k] = c[k], c[1]
                        watches[_lit_code(c[1])].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = ci
                j += 1
                if fval is False:
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    return ci
                self._enqueue(first, ci)
            del wl[j:]
        return None

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level)."""
        current = len(self.trail_lim)
        self._conflict_count += 1
        seen = bytearray(self.num_vars + 1)
        learned: list[int] = []
        counter = 0
        idx = len(self.trail) - 1
        stamp = self._conflict_count
        stamps = self._stamps
        stamps[confl] = stamp
        clause = self.clauses[confl]
        while True:
            for q in clause:
                var = abs(q)
                if not seen[var] and self.levels[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if self.levels[var] == current:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = -self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason = self.reasons[abs(p)]
            stamps[reason] = stamp
            clause = self.clauses[reason]
        # drop literals implied by the rest of the clause (local minimization)
        kept = []
        for q in learned:
            reason = self.reasons[abs(q)]
            if reason is None:
                kept.append(q)
                continue
            if any(abs(r) != abs(q) and not seen[abs(r)] and self.levels[abs(r)] > 0
                   for r in self.clauses[reason]):
                kept.append(q)
        learned = [p] + kept
        self._var_inc /= self.VAR_DECAY
        if len(learned) == 1:
            return learned, 0
        # place a literal from the backjump level at position 1
        max_i = 1
        for i in range(2, len(learned)):
            if self.levels[abs(learned[i])] > self.levels[abs(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.levels[abs(learned[1])]

    def _record(self, learned: list[int]) -> None:
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        ci = len(self.clauses)
        self.clauses.append(learned)
        self._is_learned.append(True)
        self._stamps.append(self._conflict_count)
        self._learned_alive += 1
        self.watches[_lit_code(learned[0])].append(ci)
        self.watches[_lit_code(learned[1])].append(ci)
        self._enqueue(learned[0], ci)

    def _reduce_db(self) -> None:
        """Drop the least recently used half of the long learned clauses."""
        locked = {self.reasons[abs(lit)] for lit in self.trail
                  if self.reasons[abs(lit)] is not None}
        candidates = [ci for ci, c in enumerate(self.clauses)
                      if self._is_learned[ci] and c is not None
                      and len(c) > 2 and ci not in locked]
        candidates.sort(key=lambda ci: (self._stamps[ci], ci))
        for ci in candidates[:len(candidates) // 2]:
            self.clauses[ci] = None
            self._learned_alive -= 1
        nv = self.num_vars
        self.watches = [[] for _ in range(2 * nv + 2)]
        for ci, c in enumerate(self.clauses):
            if c is not None:
                self.watches[_lit_code(c[0])].append(ci)
                self.watches[_lit_code(c[1])].append(ci)
        self._max_learned = int(self._max_learned * 1.2)

    def _next_decision_var(self) -> Optional[int]:
        values = self.values
        heap = self._heap
        activity = self.activity
        while heap:
            neg_act, var = heapq.heappop(heap)
            if values[var] is None and activity[var] == -neg_act:
                return var
        var = self._order_head
        while var <= self.num_vars and values[var] is not None:
            var += 1
        self._order_head = var
        return var if var <= self.num_vars else None

    def solve(self, assumptions: Iterable[Literal | int] = ()) -> SatResult:
        """Complete search; internally runs conflict-budgeted attempts with
        escalating budgets and varying phase profiles, so one pathological
        polarity choice cannot dominate the runtime."""
        assumed = [a.to_int() if isinstance(a, Literal) else int(a) for a in assumptions]
        for lit in assumed:
            if not 1 <= abs(lit) <= self.num_vars:
                raise ValueError(f"assumption {lit} out of range")
        if not self.ok:
            return SatResult.unsat()
        budget = 3000
        attempt = 0
        while True:
            result = self._search(assumed, budget)
            if result is not None:
                return result
            attempt += 1
            budget *= 2
            self.polarity = [False] + [self._polarity_for(v, attempt)
                                       for v in range(1, self.num_vars + 1)]

    def _search(self, assumed: list[int], budget: int) -> Optional[SatResult]:
        self._cancel_until(0)
        total_conflicts = 0
        since_restart = 0
        restart_unit = 64
        restart_limit = restart_unit * _luby(1)
        restart_index = 1
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self.trail_lim:
                    return SatResult.unsat()
                total_conflicts += 1
                since_restart += 1
                learned, back = self._analyze(confl)
                self._cancel_until(back)
                self._record(learned)
                if self._learned_alive >= self._max_learned:
                    self._reduce_db()
                if total_conflicts >= budget:
                    return None
                continue
            if since_restart >= restart_limit and len(self.trail_lim) > len(assumed):
                since_restart = 0
                restart_index += 1
                restart_limit = restart_unit * _luby(restart_index)
                self._cancel_until(len(assumed))
                continue
            level = len(self.trail_lim)
            if level < len(assumed):
                lit = assumed[level]
                val = self._lit_value(lit)
                if val is False:
                    return SatResult.unsat()
                self.trail_lim.append(len(self.trail))
                if val is None:
                    self._enqueue(lit, None)
                continue
            var = self._next_decision_var()
            if var is None:
                model = {v: bool(self.values[v]) for v in range(1, self.num_vars + 1)}
                self._check_model(model, assumed)
                return SatResult.sat(model)
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.polarity[var] else -var, None)

    def _check_model(self, model: dict[int, bool], assumed: list[int]) -> None:
        for clause in self.original:
            if not any(model[abs(l)] == (l > 0) for l in clause):
                raise AssertionError(f"model does not satisfy clause {clause}")
        for lit in assumed:
            if model[abs(lit)] != (lit > 0):
                raise AssertionError(f"model does not satisfy assumption {lit}")


def solve(formula: CnfFormula, assumptions: Iterable[Literal | int] = (),
          seed: int = 0) -> SatResult:
    """Complete decision procedure: Sat with a total model, or Unsat."""
    return CdclSolver(formula, seed).solve(assumptions)

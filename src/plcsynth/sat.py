"""Propositional decision procedure.

Tseitin transformation of Boolean expression circuits into CNF plus a
complete incremental CDCL solver (watched literals, first-UIP clause
learning, Luby restarts inside conflict-budgeted attempts that rephase
between attempts).  Everything is deterministic for a fixed formula,
clause-addition order, assumption list and seed.

A literal is numbered by its code, 2v for variable v and 2v+1 for its
negation (MiniSat's layout), so `c ^ 1` negates and `c >> 1` is the
variable.  The encoder writes clauses of codes and the solver's `extend`
and `solve` take them as they are, each clause naming each variable once,
so a clause reaches the search tables as written.  `CnfFormula`, the
solver's constructor and the one-shot `solve` speak signed literals (v
and -v, as in DIMACS); `to_codes` converts those clauses, and
`literal_code` a single literal.

`TseitinEncoder.encode` is the one writer of gate definitions; a leaf may
also be an int literal code that is numbered already.  An encoder's
`clauses` holds what its caller has not yet handed to a solver.
`assert_true` adds one unit clause; nothing in the package calls it, and
it stays because the benchmark's tracer patches it.  Callers rely on the
exact search (which model comes back, and so which program is
synthesized), so kernel changes must keep it identical; see `CdclSolver`.
"""

from __future__ import annotations

import heapq
from itertools import chain, repeat
from typing import Iterable, Mapping, Optional, Sequence

from .blocks import And, BoolExpr, Not, Or, Record, UnboundVariable, Xor, fold_expr

class CnfFormula(Record):
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


class SatResult(Record):
    """A solver answer, with a model (variable -> value) when satisfiable."""
    satisfiable: bool
    model: Optional[dict[int, bool]] = None


def to_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Literal codes


def literal_code(lit: int) -> int:
    """The code of a signed literal: 2v for v, 2v+1 for -v."""
    return 2 * lit if lit > 0 else 1 - 2 * lit


def _signed(code: int) -> int:
    """The signed literal of a code, for messages."""
    return -(code >> 1) if code & 1 else code >> 1


def _each_variable_once(clauses: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """Clauses of codes with each variable named once: a repeated literal
    keeps its first place, and a clause holding a literal and its
    negation (always true) is dropped."""
    kept = []
    for clause in clauses:
        unique = dict.fromkeys(clause)
        if not any(c ^ 1 in unique for c in unique):
            kept.append(tuple(unique))
    return kept


def to_codes(clauses: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Signed clauses as the clauses of codes `CdclSolver.extend` takes,
    each variable named once."""
    return _each_variable_once(map(literal_code, clause) for clause in clauses)


# --------------------------------------------------------------------------
# Tseitin transformation


class TseitinEncoder:
    """Accumulates definition clauses, in literal codes, for one or more
    expression roots.

    `var_map` names the variables the caller numbered (name -> literal
    code); fresh variables are numbered after the highest of them.
    Structurally shared subexpressions (same object) are encoded once.
    `clauses` holds the clauses not yet handed to a solver: a caller that
    loads them into one clears the list, and the numbering and memo go on.
    Every clause names each variable once, as `CdclSolver.extend` asks: a
    gate whose operands share a variable (`a ^ b < 2`) writes its
    clauses with repeats dropped and the always-true ones left out.
    `assert_true` is one unit clause on `encode`'s literal, kept for the
    benchmark's tracer.
    """

    def __init__(self, var_map: Mapping[str, int]):
        self.var_map = dict(var_map)
        self._next = (max(self.var_map.values(), default=1) | 1) + 1  # the next fresh code
        self.clauses: list[tuple[int, ...]] = []
        self._memo: dict[int, int] = {}
        self._keepalive: list[BoolExpr] = []  # the roots encoded

    def fresh(self) -> int:
        """The positive literal code of a new variable."""
        code = self._next
        self._next += 2
        return code

    @property
    def num_vars(self) -> int:
        return (self._next >> 1) - 1

    def assert_true(self, expr: BoolExpr) -> None:
        """Constrain the expression to hold: one unit clause on its literal."""
        self.clauses.append((self.encode(expr),))

    def encode(self, expr: BoolExpr | int) -> int:
        """Returns a literal code equivalent to the expression.  An int
        leaf is a literal code numbered already and comes back as is, with
        no clause, variable or memo entry.  Gates and constants are
        numbered, and their clauses written, in `fold_expr`'s post-order."""
        if type(expr) is int:
            return expr
        lit = self._memo.get(id(expr))
        if lit is None:
            self._keepalive.append(expr)  # every memo key is reachable from a root
            # gates built per call: kept on self, bound methods would make the
            # encoder a cycle that only the cyclic garbage collector frees
            lit = fold_expr(expr, self._var, self._const,
                            {Not: (1).__xor__, And: self._and, Or: self._or, Xor: self._xor},
                            self._memo)
        return lit

    def _var(self, name: str) -> int:
        try:
            return self.var_map[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def _const(self, value: bool) -> int:
        v = self.fresh()
        self.clauses.append((v if value else v ^ 1,))
        return v

    def _and(self, a: int, b: int) -> int:
        v = self.fresh()
        gate = ((v ^ 1, a), (v ^ 1, b), (v, a ^ 1, b ^ 1))
        self.clauses += gate if a ^ b > 1 else _each_variable_once(gate)
        return v

    def _or(self, a: int, b: int) -> int:
        v = self.fresh()
        gate = ((v ^ 1, a, b), (v, a ^ 1), (v, b ^ 1))
        self.clauses += gate if a ^ b > 1 else _each_variable_once(gate)
        return v

    def _xor(self, a: int, b: int) -> int:
        v = self.fresh()
        gate = ((v ^ 1, a, b), (v ^ 1, a ^ 1, b ^ 1), (v, a, b ^ 1), (v, a ^ 1, b))
        self.clauses += gate if a ^ b > 1 else _each_variable_once(gate)
        return v


# --------------------------------------------------------------------------
# CDCL solver


def _luby(i: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def _check_codes(codes: list[int], num_vars: int, what: str) -> None:
    """Raise ValueError naming the first of `codes` outside 2..2N+1."""
    top = 2 * num_vars + 1
    if codes and (min(codes) < 2 or max(codes) > top):
        bad = next(c for c in codes if not 2 <= c <= top)
        raise ValueError(f"{what} code {bad} out of range (num_vars={num_vars})")


class CdclSolver:
    """Conflict-driven clause learning over a formula that may grow
    between solve() calls through extend().

    Decisions follow conflict-driven variable activities (ties and the
    conflict-free start fall back to the lowest unassigned index); the
    default polarity is false, perturbed per variable only by a nonzero
    seed.  Everything is deterministic for fixed inputs and seed.  A
    solver instance holds mutable search state and is not shareable
    across concurrent callers.

    Layout: a literal is its code, 2v for v and 2v+1 for -v, so `c ^ 1`
    negates and `c >> 1` is the variable, at the boundary as inside:
    `extend` and `solve` take codes, `original` keeps the clauses as
    given (the caller's tuples), and only a model maps variables to
    values.  The constructor alone takes a signed `CnfFormula`, which it
    converts with `to_codes`.  A clause handed to `extend` must name each
    variable once; one that does not is not caught and can make the
    search answer wrongly, so clauses come from the encoder, the engine's
    templates or `to_codes`.  Every search table is indexed by a
    non-negative int and grows by appending.
    `lv` has 2N+2 entries and `lv[c]` is the truth of code c (True, False
    or None), so `lv[2 * v]` is variable v's value.  `watches[c]` lists
    the clauses watching c, and watch lists and `reasons` hold the clause
    lists themselves (`reasons[v]` means something only while v is
    assigned); `clauses` keeps every live long clause in arrival order
    and `learned` the learned ones among them, also in arrival order (as
    MiniSat's `learnts`): the learned-clause reduction drops clauses from
    both and rebuilds the watches from `clauses`.  The decision heap
    holds at most one live entry per variable, one carrying its current
    activity (`_in_heap`); stale entries are dropped when popped.

    Kernel rule: a change to this class must keep the search identical,
    i.e. the same watch visit order, watched-literal swaps, trail, learned
    clauses, decisions and models for the same calls; the golden digests
    in tests/test_sat.py check it.
    """

    VAR_DECAY = 0.95

    def __init__(self, formula: CnfFormula, seed: int = 0):
        self.num_vars = 0
        self.seed = seed
        self.lv: list[Optional[bool]] = [None, None]
        self.levels = [0]
        self.reasons: list[Optional[list[int]]] = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[list[int]]] = [[], []]
        self.clauses: list[list[int]] = []
        self.original: list[tuple[int, ...]] = []
        self.ok = True
        self._order_head = 1
        self.activity = [0.0]
        self._var_inc = 1.0
        self._heap: list[tuple[float, int]] = []
        self._in_heap = [False]
        self.polarity = [False]
        self.learned: list[list[int]] = []
        self._stamps: dict[int, int] = {}  # id(clause) -> last conflict it was in
        self._max_learned = 4000
        self._conflict_count = 0
        self.extend(formula.num_vars, to_codes(formula.clauses))

    # flip densities for the rephasing ladder; 0 means pure false-first
    _PHASE_DENSITIES = (16, 0, 8, 32, 4, 64)

    def _phases(self, first: int, last: int, attempt: int = 0) -> list[bool]:
        """Default polarities of variables first..last in the given
        attempt: false-first with a sparse, seed-keyed flip, enough to
        diversify runs without fighting the mostly-false structure of
        selector vars."""
        density = self._PHASE_DENSITIES[attempt % len(self._PHASE_DENSITIES)]
        if (self.seed == 0 and attempt == 0) or density == 0:
            return [False] * (last - first + 1)
        salt = self.seed * 40503 + attempt * 915561
        return [(v * 2654435761 + salt) % density == 0 for v in range(first, last + 1)]

    def extend(self, num_vars: int, clauses: Sequence[tuple[int, ...]]) -> None:
        """Grow the variable range to `num_vars` and conjoin clauses of
        literal codes permanently.

        Each clause must name each variable at most once, as the encoder
        and `to_codes` write them; that is not checked here, and a clause
        that breaks it raises nothing but can put two watches on one
        literal, miss propagations and give wrong answers.  Every code
        must lie in 2..2*num_vars+1: one out of range rejects the whole
        batch, naming the first, before anything changes.  Learned clauses
        stay valid because additions only strengthen the formula.  Must be
        called between solve() calls.  Once level-0 assignments have been
        propagated, new clauses are simplified against them (as MiniSat's
        addClause does): satisfied clauses are skipped and false literals
        dropped, since the watch scheme never revisits a literal that was
        already false when its clause arrived.  An empty clause makes the
        formula unsatisfiable.
        """
        if num_vars < self.num_vars:
            raise ValueError("cannot shrink the variable range")
        _check_codes(list(chain.from_iterable(clauses)), num_vars, "literal")
        self._cancel_until(0)
        # a one-shot load has propagated nothing yet; skip the filter there
        simplify = self.qhead > 0
        grow = num_vars - self.num_vars
        if grow:
            self.lv += [None] * (2 * grow)
            self.watches += [[] for _ in range(2 * grow)]
            self.levels += [0] * grow
            self.reasons += [None] * grow
            self.activity += [0.0] * grow
            self._in_heap += [False] * grow
            self.polarity += self._phases(self.num_vars + 1, num_vars)
            self.num_vars = num_vars
        self.original += clauses
        if not self.ok:
            return
        lv, watches = self.lv, self.watches
        value = lv.__getitem__
        keep = self.clauses.append
        for clause in clauses:
            lits = list(clause)
            if simplify:
                vals = list(map(value, lits))
                if True in vals:
                    continue
                if False in vals:
                    lits = [lit for lit, val in zip(lits, vals) if val is None]
            if len(lits) > 1:
                keep(lits)
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif not lits or lv[lits[0]] is False:
                self.ok = False
                break
            elif lv[lits[0]] is None:
                self._enqueue(lits[0], None)

    # -- assignment primitives

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        self.lv[lit] = True
        self.lv[lit ^ 1] = False
        var = lit >> 1
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)

    def _cancel_until(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        lim = self.trail_lim[level]
        push = heapq.heappush
        heap, lv = self._heap, self.lv
        activity, in_heap = self.activity, self._in_heap
        order_head = self._order_head
        for lit in self.trail[lim:]:
            lv[lit] = lv[lit ^ 1] = None
            var = lit >> 1
            if not in_heap[var] and activity[var] > 0.0:
                push(heap, (-activity[var], var))
                in_heap[var] = True
            if var < order_head:
                order_head = var
        self._order_head = order_head
        del self.trail[lim:]
        del self.trail_lim[level:]
        self.qhead = lim

    def _rescale(self) -> None:
        """Scale all activities down and rebuild the heap from the
        unassigned variables."""
        scale = 1e-100
        activity, lv, in_heap = self.activity, self.lv, self._in_heap
        for v in range(1, self.num_vars + 1):
            activity[v] *= scale
        self._var_inc *= scale
        fresh = []
        for v in range(1, self.num_vars + 1):
            live = lv[2 * v] is None and activity[v] > 0.0
            in_heap[v] = live
            if live:
                fresh.append((-activity[v], v))
        heapq.heapify(fresh)
        self._heap = fresh

    # -- search

    def _propagate(self) -> Optional[list[int]]:
        lv = self.lv
        watches = self.watches
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            kept: list[list[int]] = []
            keep = kept.append
            visits = iter(watches[false_lit])
            for c in visits:
                first = c[0]
                if first == false_lit:
                    first = c[0] = c[1]
                    c[1] = false_lit
                fval = lv[first]
                if fval:
                    keep(c)
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if lv[lk] is not False:
                        c[1] = lk
                        c[k] = false_lit
                        watches[lk].append(c)
                        break
                else:
                    keep(c)
                    if fval is False:
                        kept.extend(visits)
                        watches[false_lit] = kept
                        self.qhead = qhead
                        return c
                    lv[first] = True
                    lv[first ^ 1] = False
                    var = first >> 1
                    levels[var] = level
                    reasons[var] = c
                    trail.append(first)
            watches[false_lit] = kept
        self.qhead = qhead
        return None

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level)."""
        levels, reasons, trail = self.levels, self.reasons, self.trail
        activity, in_heap = self.activity, self._in_heap
        current = len(self.trail_lim)
        self._conflict_count += 1
        seen = bytearray(self.num_vars + 1)
        learned: list[int] = []
        counter = 0
        idx = len(trail) - 1
        stamp = self._conflict_count
        stamps = self._stamps
        var_inc = self._var_inc
        clause = confl
        while True:
            stamps[id(clause)] = stamp
            for q in clause:
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    # bump: any heap entry of the (assigned) variable goes
                    # stale; _cancel_until pushes a live one on unassigning
                    act = activity[var] + var_inc
                    activity[var] = act
                    in_heap[var] = False
                    if act > 1e100:
                        self._rescale()
                        var_inc = self._var_inc
                    if levels[var] == current:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx] ^ 1
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            clause = reasons[p >> 1]
        # drop literals implied by the rest of the clause (local minimization)
        kept = []
        for q in learned:
            qvar = q >> 1
            reason = reasons[qvar]
            if reason is None:
                kept.append(q)
                continue
            for r in reason:
                rvar = r >> 1
                if rvar != qvar and not seen[rvar] and levels[rvar] > 0:
                    kept.append(q)
                    break
        learned = [p] + kept
        self._var_inc /= self.VAR_DECAY
        if len(learned) == 1:
            return learned, 0
        # place a literal from the backjump level at position 1
        max_i = 1
        for i in range(2, len(learned)):
            if levels[learned[i] >> 1] > levels[learned[max_i] >> 1]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, levels[learned[1] >> 1]

    def _record(self, learned: list[int]) -> None:
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        self.clauses.append(learned)
        self.learned.append(learned)
        self._stamps[id(learned)] = self._conflict_count
        self.watches[learned[0]].append(learned)
        self.watches[learned[1]].append(learned)
        self._enqueue(learned[0], learned)

    def _reduce_db(self) -> None:
        """Drop the least recently used half of the long learned clauses."""
        stamps = self._stamps
        locked = {id(self.reasons[lit >> 1]) for lit in self.trail}
        candidates = [c for c in self.learned if len(c) > 2 and id(c) not in locked]
        candidates.sort(key=lambda c: stamps[id(c)])  # stable: ties keep arrival order
        dropped = {id(c) for c in candidates[:len(candidates) // 2]}
        for key in dropped:
            del stamps[key]
        self.learned = [c for c in self.learned if id(c) not in dropped]
        self.clauses = [c for c in self.clauses if id(c) not in dropped]
        watches: list[list[list[int]]] = [[] for _ in range(2 * self.num_vars + 2)]
        for c in self.clauses:
            watches[c[0]].append(c)
            watches[c[1]].append(c)
        self.watches = watches
        self._max_learned = int(self._max_learned * 1.2)

    def _next_decision_var(self) -> Optional[int]:
        lv = self.lv
        heap = self._heap
        activity, in_heap = self.activity, self._in_heap
        pop = heapq.heappop
        while heap:
            neg_act, var = pop(heap)
            if activity[var] == -neg_act:  # the variable's live entry
                in_heap[var] = False
                if lv[2 * var] is None:
                    return var
        var = self._order_head
        while var <= self.num_vars and lv[2 * var] is not None:
            var += 1
        self._order_head = var
        return var if var <= self.num_vars else None

    def solve(self, assumptions: Iterable[int] = ()) -> SatResult:
        """Complete search under the assumed literal codes; internally runs
        conflict-budgeted attempts with escalating budgets and varying phase
        profiles, so one pathological polarity choice cannot dominate the
        runtime.

        UNSAT under assumptions leaves the solver usable for other
        assumptions.  UNSAT that needed no assumption is final: the formula
        itself is contradictory, `ok` turns false and every later call
        answers UNSAT at once."""
        assumed = list(assumptions)
        _check_codes(assumed, self.num_vars, "assumption")
        if not self.ok:
            return SatResult(False)
        budget = 3000
        attempt = 0
        while True:
            result = self._search(assumed, budget)
            if result is not None:
                if result.satisfiable:
                    self._check_model(result.model, assumed)
                return result
            attempt += 1
            budget *= 2
            self.polarity = [False] + self._phases(1, self.num_vars, attempt)

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
                if not self.trail_lim:  # no decision or assumption behind it
                    self.ok = False
                    return SatResult(False)
                total_conflicts += 1
                since_restart += 1
                learned, back = self._analyze(confl)
                self._cancel_until(back)
                self._record(learned)
                if len(self.learned) >= self._max_learned:
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
                val = self.lv[lit]
                if val is False:
                    return SatResult(False)
                self.trail_lim.append(len(self.trail))
                if val is None:
                    self._enqueue(lit, None)
                continue
            var = self._next_decision_var()
            if var is None:
                return SatResult(True, dict(zip(range(1, self.num_vars + 1), self.lv[2::2])))
            self.trail_lim.append(len(self.trail))
            self._enqueue(2 * var if self.polarity[var] else 2 * var + 1, None)

    def _check_model(self, model: Mapping[int, bool], assumed: Sequence[int]) -> None:
        """Raise AssertionError, also under `python -O`, unless the model
        satisfies every clause given and every assumed code; reads the
        model, never `lv`."""
        n = self.num_vars
        # variable v's true code is 2v+1 minus its value
        true = set(map(int.__sub__, range(3, 2 * n + 2, 2),
                       map(model.get, range(1, n + 1), repeat(False))))
        clause = next(filter(true.isdisjoint, self.original), None)
        if clause is not None:
            raise AssertionError(f"model does not satisfy clause {tuple(map(_signed, clause))}")
        for code in assumed:
            if code not in true:
                raise AssertionError(f"model does not satisfy assumption {_signed(code)}")


def solve(formula: CnfFormula, assumptions: Iterable[int] = (),
          seed: int = 0) -> SatResult:
    """Complete decision procedure: Sat with a total model, or Unsat.
    The assumptions are signed literals, as the formula's clauses are."""
    assumed = list(assumptions)
    for lit in assumed:
        if lit == 0 or abs(lit) > formula.num_vars:
            raise ValueError(f"assumption {lit} out of range (num_vars={formula.num_vars})")
    return CdclSolver(formula, seed).solve(map(literal_code, assumed))

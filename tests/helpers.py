"""Shared test oracles and random generators.

Everything here is deliberately independent of the implementation paths it
checks: brute-force enumeration, bit-parallel truth tables and direct
simulation only.
"""

from __future__ import annotations

import itertools
import random

from plcsynth.blocks import (
    And, Block, BlockInterface, BoolExpr, Const, Direction, Lang, Not, Or,
    Statement, Var, VarDecl, Xor, replace, simulate,
)
from plcsynth.constraints import AssertionClause, SpecFormula
from plcsynth.sat import _signed


# --------------------------------------------------------------------------
# Bit-parallel CNF enumeration: column v holds the value of variable v over
# all 2^n assignments, packed into one big integer.


def brute_force_satisfiable(num_vars: int, clauses) -> bool:
    total = 1 << num_vars
    full = (1 << total) - 1
    masks: dict[int, int] = {}

    def var_mask(v: int) -> int:
        m = masks.get(v)
        if m is None:
            size = 1 << (v - 1)
            period = ((1 << size) - 1) << size
            m = period * (full // ((1 << (2 * size)) - 1))
            masks[v] = m
        return m

    acc = full
    for clause in clauses:
        col = 0
        for lit in clause:
            m = var_mask(abs(lit))
            col |= m if lit > 0 else (full ^ m)
            if col == full:
                break
        acc &= col
        if not acc:
            return False
    return acc != 0


def signed_clauses(clauses) -> list[tuple[int, ...]]:
    """Clauses of literal codes as tuples of signed literals."""
    return [tuple(map(_signed, clause)) for clause in clauses]


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int):
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


# --------------------------------------------------------------------------
# Random expressions and blocks


def random_expr(rng: random.Random, names, size: int) -> BoolExpr:
    if size <= 1 or not names:
        if names and rng.random() < 0.9:
            return Var(rng.choice(names))
        return Const(rng.random() < 0.5)
    op = rng.choice(("not", "and", "or", "xor"))
    if op == "not":
        return Not(random_expr(rng, names, size - 1))
    left_size = rng.randint(1, size - 1)
    left = random_expr(rng, names, left_size)
    right = random_expr(rng, names, size - 1 - left_size)
    cls = {"and": And, "or": Or, "xor": Xor}[op]
    return cls(left, right)


def random_block(rng: random.Random, n_inputs: int, n_outputs: int = 1,
                 n_state: int = 0, n_temps: int = 0, n_statements: int = 3,
                 max_expr_size: int = 6, name: str = "rnd") -> Block:
    decls = [VarDecl(f"in{i}", Direction.INPUT) for i in range(n_inputs)]
    decls += [VarDecl(f"out{i}", Direction.OUTPUT) for i in range(n_outputs)]
    decls += [VarDecl(f"st{i}", Direction.STATE) for i in range(n_state)]
    decls += [VarDecl(f"tmp{i}", Direction.TEMP) for i in range(n_temps)]
    iface = BlockInterface(tuple(decls))
    readable = list(iface.inputs + iface.outputs + iface.state_vars)
    writable = list(iface.outputs + iface.state_vars + iface.temps)
    body = []
    for _ in range(n_statements):
        target = rng.choice(writable)
        rhs = random_expr(rng, readable, rng.randint(1, max_expr_size))
        body.append(Statement(target, rhs))
        if target not in readable:
            readable.append(target)  # temp becomes readable once assigned
    return Block(name, iface, tuple(body), Lang.ST)


def deep_temps_st(n: int) -> str:
    """An ST block over inputs a, x1..x12 with temps `t1 := a;
    t_i := t_(i-1) AND a` and `u := x1 AND ... AND x12`, and
    `y := (t_n AND x1 OR x2 AND x3) OR (u AND NOT u)`, which computes
    a AND x1 OR x2 AND x3; y's inlined guard is n levels deep and reads
    13 inputs."""
    xs = [f"x{i}" for i in range(1, 13)]
    inputs = "".join(f"  {x} : BOOL;\n" for x in ["a", *xs])
    temps = "".join(f"  t{i} : BOOL;\n" for i in range(1, n + 1))
    body = "".join(f"  t{i} := t{i - 1} AND a;\n" for i in range(2, n + 1))
    return (f"FUNCTION_BLOCK Deep\nVAR_INPUT\n{inputs}END_VAR\n"
            f"VAR_OUTPUT\n  y : BOOL;\nEND_VAR\nVAR_TEMP\n{temps}  u : BOOL;\nEND_VAR\n"
            f"BEGIN\n  t1 := a;\n{body}  u := {' AND '.join(xs)};\n"
            f"  y := (t{n} AND x1 OR x2 AND x3) OR (u AND NOT u);\nEND_FUNCTION_BLOCK\n")


def tie_outputs(spec: SpecFormula) -> SpecFormula:
    """The spec plus the tautology `o1 OR NOT o1 OR o2 OR ...`, which
    names every output, so `synthesize` runs all outputs in one joint
    CEGIS run.  Every output valuation meets it at every point, so no
    dead point moves and `Unsatisfiable` never names it; on a full table
    the template's points and clauses stay those of the plain spec."""
    first, *rest = (Var(o) for o in spec.interface.outputs)
    expr = Or(first, Not(first))
    for var in rest:
        expr = Or(expr, var)
    origins = [c.origin for clauses in spec.obligations.values() for c in clauses]
    origin = max([*origins, *(c.origin for c in spec.assertions)], default=-1) + 1
    return replace(spec, assertions=(*spec.assertions, AssertionClause(expr, origin)))


# --------------------------------------------------------------------------
# Exhaustive block equivalence by simulation


def all_assignments(names):
    names = list(names)
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def blocks_equivalent(a: Block, b: Block, cycles: int = 1) -> bool:
    """Outputs equal on every initial state and input sequence of `cycles`."""
    iface = a.interface
    inputs = iface.inputs
    for init in all_assignments(iface.state_vars):
        for seq in itertools.product(list(all_assignments(inputs)), repeat=cycles):
            ta = simulate(a, list(seq), dict(init))
            tb = simulate(b, list(seq), dict(init))
            for ca, cb in zip(ta.cycles, tb.cycles):
                if ca.outputs != cb.outputs:
                    return False
    return True


def output_table(block: Block, output: str) -> dict[tuple[bool, ...], bool]:
    """Truth table of one output of a combinational block."""
    table = {}
    for env in all_assignments(block.interface.inputs):
        trace = simulate(block, [env])
        table[tuple(env[n] for n in block.interface.inputs)] = trace.cycles[0].outputs[output]
    return table


# --------------------------------------------------------------------------
# Straight-line template enumeration (minimality oracle)
#
# Mirrors the candidate grammar: slot operators INPUT_i, CONST, NOT, AND,
# OR, XOR with operands drawn from the inputs and earlier slots; the last
# slot is the output.  Functions are truth vectors over 2^n points packed
# as integers.


def reachable_functions(n_inputs: int, n_slots: int) -> set[int]:
    npoints = 1 << n_inputs
    full = (1 << npoints) - 1
    input_vecs = []
    for i in range(n_inputs):
        vec = 0
        for point in range(npoints):
            if (point >> i) & 1:
                vec |= 1 << point
        input_vecs.append(vec)

    def op_results(avail: tuple[int, ...]) -> set[int]:
        res = set(input_vecs)
        res.add(0)
        res.add(full)
        for v in avail:
            res.add(full ^ v)
        pool = list(avail)
        for i, x in enumerate(pool):
            for y in pool[i:]:
                res.add(x & y)
                res.add(x | y)
                res.add(x ^ y)
        return res

    states = {tuple(input_vecs)}
    for step in range(1, n_slots + 1):
        if step == n_slots:
            final: set[int] = set()
            for avail in states:
                final |= op_results(avail)
            return final
        next_states = set()
        for avail in states:
            for v in op_results(avail):
                next_states.add(tuple(sorted(set(avail) | {v})))
        states = next_states
    return set()


def min_slots_for(n_inputs: int, satisfies) -> int:
    """Smallest slot count whose reachable functions contain one accepted
    by the predicate `satisfies(vector) -> bool`."""
    for k in range(1, 9):
        if any(satisfies(vec) for vec in reachable_functions(n_inputs, k)):
            return k
    raise AssertionError("no program up to 8 slots satisfies the predicate")


# --------------------------------------------------------------------------
# Plain recursive references for the expression folds.  Each walks its
# expression as a tree, one Python frame per level and a shared subterm
# once per path (memoized only where the fold's result depends on it), so
# keep their inputs small and shallow.


def ref_size(expr: BoolExpr) -> int:
    if isinstance(expr, (Const, Var)):
        return 1
    if isinstance(expr, Not):
        return 1 + ref_size(expr.operand)
    return 1 + ref_size(expr.left) + ref_size(expr.right)


def ref_depth(expr: BoolExpr) -> int:
    if isinstance(expr, (Const, Var)):
        return 1
    if isinstance(expr, Not):
        return 1 + ref_depth(expr.operand)
    return 1 + max(ref_depth(expr.left), ref_depth(expr.right))


def ref_vars(expr: BoolExpr) -> set:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Not):
        return ref_vars(expr.operand)
    return ref_vars(expr.left) | ref_vars(expr.right)


def ref_rename(expr: BoolExpr, mapping) -> BoolExpr:
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return Var(mapping.get(expr.name, expr.name))
    if isinstance(expr, Not):
        return Not(ref_rename(expr.operand, mapping))
    return type(expr)(ref_rename(expr.left, mapping), ref_rename(expr.right, mapping))


def ref_subst(expr: BoolExpr, env, build) -> BoolExpr:
    """Variables replaced by `env`'s expressions, each operator node
    rebuilt by `build[type](operands...)`."""
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Not):
        return build[Not](ref_subst(expr.operand, env, build))
    return build[type(expr)](ref_subst(expr.left, env, build),
                             ref_subst(expr.right, env, build))


def ref_mask(expr: BoolExpr, env, full: int) -> int:
    """Truth table of `expr` from its variables' tables in `env`."""
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Const):
        return full if expr.value else 0
    if isinstance(expr, Not):
        return full ^ ref_mask(expr.operand, env, full)
    a, b = ref_mask(expr.left, env, full), ref_mask(expr.right, env, full)
    return {And: a & b, Or: a | b, Xor: a ^ b}[type(expr)]


def ref_straight_line(expr: BoolExpr, inputs) -> list:
    """(operator, operands, constant) per slot: post-order, left first, one
    slot per distinct operator or constant shape; Var operands read their
    input index and a bare variable takes one slot."""
    index = {name: i for i, name in enumerate(inputs)}
    if isinstance(expr, Var):
        return [((Var, index[expr.name]), (0, 0), False)]
    slots: dict = {}

    def walk(node) -> int:
        if isinstance(node, Var):
            return index[node.name]
        if isinstance(node, Const):
            shape = ((Const,), (0, 0), node.value)
        elif isinstance(node, Not):
            shape = ((Not,), (walk(node.operand), 0), False)
        else:
            a, b = walk(node.left), walk(node.right)
            shape = ((type(node),), (a, b), False)
        return slots.setdefault(shape, len(index) + len(slots))

    walk(expr)
    return list(slots)


def ref_tseitin(roots, var_map):
    """(literals, clauses, variable count) of the recursive Tseitin
    encoding of `roots` in turn, in signed literals: one variable per
    distinct gate or constant node object, numbered in post-order with left
    operands first; an int leaf is a literal code, read as its signed
    literal.  A gate clause names each variable once: a repeated literal
    keeps its first place, and a clause holding a literal and its negation
    is left out."""
    clauses: list = []
    memo: dict = {}
    top = [max(var_map.values(), default=0)]

    def fresh() -> int:
        top[0] += 1
        return top[0]

    def enc(node) -> int:
        if type(node) is int:
            return _signed(node)
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Var):
            lit = var_map[node.name]
        elif isinstance(node, Const):
            lit = fresh()
            clauses.append((lit if node.value else -lit,))
        elif isinstance(node, Not):
            lit = -enc(node.operand)
        else:
            a, b = enc(node.left), enc(node.right)
            v = lit = fresh()
            for clause in {And: [(-v, a), (-v, b), (v, -a, -b)],
                           Or: [(-v, a, b), (v, -a), (v, -b)],
                           Xor: [(-v, a, b), (-v, -a, -b), (v, a, -b), (v, -a, b)]}[type(node)]:
                unique = dict.fromkeys(clause)
                if not any(-lit in unique for lit in unique):
                    clauses.append(tuple(unique))
        memo[id(node)] = lit
        return lit

    return [enc(root) for root in roots], clauses, top[0]

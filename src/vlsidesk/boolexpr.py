"""Boolean expression trees over named inputs, with a compact-notation parser.

``parse_expr`` reads expressions like ``"AB(C+D) + E'"``: juxtaposition
is AND, ``+`` (or ``|``) is OR, ``^`` is XOR, ``~x`` or a postfix prime
is NOT. Identifiers are a single letter plus optional digits, so
implicit AND stays unambiguous.

The truth-table kernel evaluates a function over all 2^n input patterns
at once (parallel-pattern simulation): ``pattern_tables`` gives each input
a Python-int bitset whose bit k is that input's value in pattern k, and
the bitwise operators on those bitsets evaluate every pattern together.
"""

import functools
import operator

from . import Record
from .errors import InputError, StructureError


class Expr:
    def __and__(self, other):
        return And(self, _coerce(other))

    def __or__(self, other):
        return Or(self, _coerce(other))

    def __xor__(self, other):
        return Xor(self, _coerce(other))

    def __invert__(self):
        return Not(self)

    def variables(self):
        out = set()
        _collect(self, out)
        return tuple(sorted(out))

    def evaluate(self, env) -> bool:
        raise NotImplementedError


class Var(Expr, Record):
    _fields = ("name",)

    def __init__(self, name):
        self.__dict__["name"] = name

    def evaluate(self, env):
        if self.name not in env:
            raise InputError(f"no value for input {self.name!r}")
        return bool(env[self.name])


class Const(Expr, Record):
    _fields = ("value",)

    def __init__(self, value):
        self.__dict__["value"] = value

    def evaluate(self, env):
        return self.value


class Not(Expr, Record):
    _fields = ("arg",)

    def __init__(self, arg):
        self.__dict__["arg"] = arg

    def evaluate(self, env):
        return not self.arg.evaluate(env)


class _Nary(Expr):
    def __init__(self, *args):
        flat = []
        for a in args:
            a = _coerce(a)
            if isinstance(a, type(self)):
                flat.extend(a.args)
            else:
                flat.append(a)
        if len(flat) < 2:
            raise InputError(f"{type(self).__name__} needs at least two operands")
        self.args = tuple(flat)

    def __eq__(self, other):
        return type(self) is type(other) and self.args == other.args

    def __hash__(self):
        return hash((type(self).__name__, self.args))

    def __repr__(self):
        return f"{type(self).__name__}{self.args!r}"


class And(_Nary):
    def evaluate(self, env):
        return all(a.evaluate(env) for a in self.args)


class Or(_Nary):
    def evaluate(self, env):
        return any(a.evaluate(env) for a in self.args)


class Xor(Expr, Record):
    _fields = ("a", "b")

    def __init__(self, a, b):
        self.__dict__.update(a=a, b=b)

    def evaluate(self, env):
        return self.a.evaluate(env) != self.b.evaluate(env)


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, str):
        return Var(x)
    if x in (0, 1, True, False):
        return Const(bool(x))
    raise InputError(f"cannot treat {x!r} as a boolean expression")


def _collect(e, out):
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, Not):
        _collect(e.arg, out)
    elif isinstance(e, (And, Or)):
        for a in e.args:
            _collect(a, out)
    elif isinstance(e, Xor):
        _collect(e.a, out)
        _collect(e.b, out)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def error(self, msg):
        raise StructureError(f"parse error at column {self.i + 1}: {msg} in {self.text!r}")

    def peek(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self):
        e = self.or_expr()
        if self.peek():
            self.error(f"unexpected {self.peek()!r}")
        return e

    def or_expr(self):
        terms = [self.and_expr()]
        while self.peek() and self.peek() in "+|":
            self.i += 1
            terms.append(self.and_expr())
        return terms[0] if len(terms) == 1 else Or(*terms)

    def and_expr(self):
        factors = [self.xor_expr()]
        while True:
            c = self.peek()
            if c and c in "&*":
                self.i += 1
                factors.append(self.xor_expr())
            elif c and (c.isalpha() or c in "(~!"):  # juxtaposition
                factors.append(self.xor_expr())
            else:
                break
        return factors[0] if len(factors) == 1 else And(*factors)

    def xor_expr(self):
        e = self.factor()
        while self.peek() and self.peek() == "^":
            self.i += 1
            e = Xor(e, self.factor())
        return e

    def factor(self):
        c = self.peek()
        if c and c in "~!":
            self.i += 1
            return Not(self.factor())
        if c == "(":
            self.i += 1
            e = self.or_expr()
            if self.peek() != ")":
                self.error("missing ')'")
            self.i += 1
            return self.postfix(e)
        if c and c in "01":
            self.i += 1
            return self.postfix(Const(c == "1"))
        if c.isalpha():
            start = self.i
            self.i += 1
            while self.i < len(self.text) and self.text[self.i].isdigit():
                self.i += 1
            return self.postfix(Var(self.text[start:self.i]))
        self.error("expected a literal, '(', or '~'")

    def postfix(self, e):
        while self.peek() == "'":
            self.i += 1
            e = Not(e)
        return e


def parse_expr(text: str) -> Expr:
    """Parse a switching-algebra expression string."""
    return _Parser(text).parse()


# --- truth-table kernel ------------------------------------------------------

def pattern_tables(n):
    """One bitset per input over all 2^n patterns, and the all-ones mask.

    Input 0 is the most significant bit of the pattern index, so pattern k
    is the k-th vector of ``itertools.product((0, 1), repeat=n)`` and the
    lowest set bit of a table is its lexicographically smallest vector.
    """
    size = 1 << n
    tables = []
    for i in range(n):
        block = 1 << (n - 1 - i)                # input i is 1 on every other block
        table, width = ((1 << block) - 1) << block, 2 * block
        while width < size:                     # repeat the period by doubling
            table |= table << width
            width *= 2
        tables.append(table)
    return tables, (1 << size) - 1


def pattern_bits(k, n):
    """The input values (input 0 first) of pattern ``k`` of ``n`` inputs."""
    return [(k >> (n - 1 - i)) & 1 for i in range(n)]


def set_patterns(table):
    """Indices of the patterns set in ``table``, in increasing order."""
    return [k for k, bit in enumerate(bin(table)[:1:-1]) if bit == "1"]


def expr_table(expr, tables, full):
    """Output bitset of ``expr``; ``tables`` maps each variable to its bitset."""
    if isinstance(expr, Var):
        if expr.name not in tables:
            raise InputError(f"no value for input {expr.name!r}")
        return tables[expr.name]
    if isinstance(expr, Const):
        return full if expr.value else 0
    if isinstance(expr, Not):
        return full ^ expr_table(expr.arg, tables, full)
    if isinstance(expr, Xor):
        return expr_table(expr.a, tables, full) ^ expr_table(expr.b, tables, full)
    op = operator.and_ if isinstance(expr, And) else operator.or_
    return functools.reduce(op, (expr_table(a, tables, full) for a in expr.args))

"""AST node types for the three formalisms, and the nesting bound that
both the parsers and the printer keep.

All nodes are frozen dataclasses so structural equality and hashing come
for free; children are stored as tuples. Logic connectives (Not/And/Or)
are shared between propositional and first-order formulas; a first-order
formula is its logic tree, with Quantified nodes for its quantifiers.

Every tree node is slotted, so it carries no per-instance `__dict__`: a
generated dataset holds millions of them. A parse builds each distinct
Proposition, term and Atom once and shares it wherever it recurs, so two
equal nodes may or may not be one object: compare nodes with `==`, never
with `is`, and never key on `id()`. FormalExpression is not slotted
because `parse_expression` holds expressions in a weak table, and a
slotted dataclass takes a weakref slot only from Python 3.11
(`weakref_slot`), while the package supports 3.10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

FORALL = "forall"
EXISTS = "exists"

PROP = "prop"
FOL = "fol"
REGEX = "regex"

# The most levels a formula may nest, as parsed and as printed: each '(',
# negation and quantifier body of a logic formula, and each group and star of
# a regex, is one level. The parsers reject deeper text and the printer a
# tree whose canonical text would nest deeper, so every FormalExpression has
# canonical text that parses back. A depth-40 walk of a built-in grammar nests
# at most 80 levels, since one rewrite opens two at most (S -> ( ¬ S )); the
# deepest seen at the default scale was 52. Parsing, printing, the NL codec
# and the verifiers exceed Python's default recursion limit from about 200
# levels, so a deeper formula is rejected as a parse error rather than
# crashing later.
MAX_NESTING = 100
TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"


class ParseError(ValueError):
    """Syntax error with the offending position and what was expected."""

    def __init__(self, message: str, position: int = 0, expected: str = ""):
        super().__init__(message)
        self.position = position
        self.expected = expected


def _two_or_more(node):
    """The `__post_init__` of the n-ary nodes And, Or and Concat."""
    if len(node.children) < 2:
        raise ValueError(f"{type(node).__name__} requires at least 2 children")


# ---------------------------------------------------------------------------
# logic nodes (shared by prop and fol)

@dataclass(frozen=True, slots=True)
class Proposition:
    name: str


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    terms: tuple["Term", ...]


@dataclass(frozen=True, slots=True)
class Constant:
    name: str


@dataclass(frozen=True, slots=True)
class Variable:
    name: str


Term = Constant | Variable


@dataclass(frozen=True, slots=True)
class Not:
    child: "LogicNode"


@dataclass(frozen=True, slots=True)
class And:
    children: tuple["LogicNode", ...]

    __post_init__ = _two_or_more


@dataclass(frozen=True, slots=True)
class Or:
    children: tuple["LogicNode", ...]

    __post_init__ = _two_or_more


@dataclass(frozen=True, slots=True)
class Quantified:
    """One quantifier block over its body. A first-order formula's prefix is
    the chain of Quantified nodes at its root, one node per block."""

    kind: str  # FORALL | EXISTS
    variables: tuple[str, ...]
    body: "LogicNode"


LogicNode = Proposition | Atom | Not | And | Or | Quantified


# ---------------------------------------------------------------------------
# regex nodes

@dataclass(frozen=True, slots=True)
class Literal:
    symbol: str


@dataclass(frozen=True, slots=True)
class Concat:
    children: tuple["RegexAst", ...]

    __post_init__ = _two_or_more


@dataclass(frozen=True, slots=True)
class Star:
    child: "RegexAst"


RegexAst = Literal | Concat | Star


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormalExpression:
    """An expression in one of the three formalisms with its canonical text.

    canonical_text is the fixed point of print-then-parse: reparsing it
    yields a structurally identical AST. Build one only with
    `printer.make_expression`, which refuses a tree whose canonical text
    would nest past MAX_NESTING, so that text always parses back.

    The text is the expression and the tree `ast` is a cache of it: `==` and
    `hash` read formalism and text only. A logic expression fresh from a
    parse may drop its tree, since its tree is the parse of its own text;
    `instantiate` returns such expressions, so a generated dataset holds text.
    The first `.ast` read of one parses the text again and keeps the tree.
    Two threads doing that at once may both parse and store equal trees,
    which is harmless. A regex expression keeps its tree (a reparse would
    need its alphabet), and so does any expression built from a tree that
    a parse did not make (a corrupted, simplified or hand-built one): such
    a tree may print like a different one, as a regex Concat nested in a
    Concat prints like the flat Concat, and an FOL Variable like a Constant
    of the same name. So `==` does not tell such trees apart; compare `.ast`
    where the tree matters.
    """

    formalism: str
    _ast: LogicNode | RegexAst | None = field(compare=False, repr=False)
    canonical_text: str

    @property
    def ast(self) -> LogicNode | RegexAst:
        tree = self._ast
        if tree is None:
            from .parse import parse_fol, parse_prop  # parse imports this module

            tree = (parse_fol if self.formalism == FOL else parse_prop)(self.canonical_text)
            object.__setattr__(self, "_ast", tree)
        return tree


# ---------------------------------------------------------------------------
# traversal: the only code that knows which fields of a node are subtrees

def children(node) -> tuple:
    """The direct subexpressions of `node`, left to right; () for leaves."""
    t = type(node)
    if t is And or t is Or or t is Concat:
        return node.children
    if t is Not or t is Star:
        return (node.child,)
    if t is Quantified:
        return (node.body,)
    return ()


def walk(node):
    """Yield `node` and every node below it in pre-order: a node before its
    children, and each child's whole subtree before the next child's. A
    Quantified node comes before its body, an Atom's terms are not visited.

    This order is a contract: the vocabulary block lists symbols by first
    occurrence in it, and the corrupting oracle's `_paths` ranks operators
    in the same pre-order over `children`, so both change if it does.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node)[::-1])


class Symbols(NamedTuple):
    """The leaf names of a tree by kind, each once, in first-occurrence pre-order."""

    propositions: list[str]
    objects: list[str]  # Constant terms
    variables: list[str]  # Variable terms and the names quantifiers bind
    predicates: list[tuple[str, int]]  # (name, arity): a name used at two arities is two
    regex: list[str]  # Literal symbols


def symbols(node) -> Symbols:
    """Every leaf name of `node` by kind, in one `walk`."""
    props, objects, variables, predicates, regex = {}, {}, {}, {}, {}
    for n in walk(node):
        t = type(n)
        if t is Proposition:
            props[n.name] = None
        elif t is Atom:
            predicates[n.predicate, len(n.terms)] = None
            for term in n.terms:
                (objects if type(term) is Constant else variables)[term.name] = None
        elif t is Literal:
            regex[n.symbol] = None
        elif t is Quantified:
            variables.update(dict.fromkeys(n.variables))
    return Symbols(list(props), list(objects), list(variables), list(predicates), list(regex))


def rebuild(node, kids):
    """A node of the same type and non-child fields as `node` over `kids`."""
    t = type(node)
    if t is And or t is Or or t is Concat:
        return t(tuple(kids))
    if t is Not or t is Star:
        return t(kids[0])
    if t is Quantified:
        return Quantified(node.kind, node.variables, kids[0])
    return node


"""Line-oriented scenario text format.

One statement per line, `#` comments, UTF-8 with LF line endings (CRLF is
accepted on input). A file opens with a `scenario` header followed by
entity, package, relation, and flow statements. Parsing executes the
corresponding graph mutations in file order, so references must be
declared before use; the first error aborts with its position.

A statement line in the single-space form that `serialize` emits is
executed from one whole-line regex match. Every other line, and any line
the fast path declines, goes through the tokenizer and a token cursor,
which is the only code that reports a ParseError. Two cursor rules give
most of its messages. `expect` takes the next token, of one kind and
perhaps one of some values, or reports "expected X, got Y" at it. `known`
looks a taken token up in a table (statement keywords, type codes,
relation names, edge types, declared entities and packages), or reports
the problem at it. Both paths build the same graph from any line the
fast path accepts, and both hand each
statement to the graph's private insert for its record kind, a flow
statement with its `->` or `<->` arrow. The grammar has already proved
what the public InstanceGraph methods would check on a caller's input:
the ids match IDENT, the type code is instantiable, and each attribute
map is fresh, well-shaped and free of repeated keys. The insert keeps
the checks that only the graph can make: duplicate ids and flow pairs,
dangling entities and packages, self-loops, edge types and relation
names, and the meaning of reserved attributes. One handler in the cursor
reports an insert's GraphError as a ParseError at the statement's id.

`serialize` emits the canonical form: sections in a fixed order, each
sorted by id, attribute keys sorted, and paired `.fwd`/`.rev` flows
re-sugared to a single `<->` statement. It checks the ids of each section
in one pass, and each record where it writes it; a section with an id that
is not an identifier goes back to checking its ids record by record, so
the first error is the one the sorted order reaches. It returns text only
when every check passed. Every graph that parse returns, or that is built
only through the InstanceGraph methods, passes those checks, and parsing
its canonical form gives back an equal graph: parse(serialize(g)) == g.
"""
import re
from typing import NamedTuple

from vdse.errors import GraphError, MalformedGraphError, ParseError
from vdse.graph import (
    IDENT,
    IDENT_RE,
    InstanceGraph,
    check_entity_attributes,
    new_scenario,
)
from vdse.schema import EntityType, INSTANTIABLE_TYPE_CODES, _shown, builtin_schema
from vdse.validate import check_references, items_not_text, name_not_text, not_a_map

__all__ = ["parse", "serialize"]

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ENTITY_TYPES = {code: EntityType(code) for code in INSTANTIABLE_TYPE_CODES}
_CODES = {etype: code for code, etype in _ENTITY_TYPES.items()}
_ESCAPE_RE = re.compile(r"\\(.)")
# A string without, and with, its closing quote; the tokenizer and the
# statement patterns share them.
_OPEN_STRING = r'"[^"\\]*(?:\\[\\"ntr][^"\\]*)*'
_STRING = _OPEN_STRING + '"'
_STRING_RE = re.compile(_STRING)
# One alternative per token kind, tried in order. A quote that does not
# make a whole string matches "open", which stops at the first backslash
# without a valid escape, or at the end of the line. A word must start with
# a letter, which the tokenizer checks: \w also matches digits, "_" and
# other numeric characters such as "²".
_TOKEN_RE = re.compile(
    r"""(?P<space>[ \t]+)
    |(?P<comment>\#)
    |(?P<string>""" + _STRING + r""")
    |(?P<open>""" + _OPEN_STRING + r""")
    |(?P<word>\w+)
    |(?P<punct><->|->|[:,={}\[\]])
    |(?P<other>.)""",
    re.VERBOSE,
)


def _unquote(string: str) -> str:
    """The value of a string matched by _STRING, quotes included."""
    value = string[1:-1]
    if "\\" in value:
        value = _ESCAPE_RE.sub(lambda escape: _ESCAPES[escape[1]], value)
    return value


class _Token(NamedTuple):
    kind: str  # word | string | punct
    value: str
    column: int


def _tokenize(text: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind, value, column = match.lastgroup, match[0], match.start() + 1
        if kind == "space":
            continue
        if kind == "comment":
            break
        if kind == "string":
            value = _unquote(value)
        elif kind == "open":
            if match.end() < len(text):
                raise ParseError("invalid escape sequence", lineno, match.end() + 1, text)
            raise ParseError("unterminated string", lineno, column, text)
        elif kind == "other" or kind == "word" and not value[0].isalpha():
            raise ParseError(f"unexpected character {value[0]!r}", lineno, column, text)
        tokens.append(_Token(kind, value, column))
    return tokens


class _Statement:
    """Cursor over one line's tokens with position-carrying errors. Two
    rules diagnose a line: expect takes a token of a kind, and known looks
    a taken token up in a table."""

    def __init__(self, tokens: list[_Token], text: str, lineno: int):
        self.tokens = tokens
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, token: _Token | None = None) -> ParseError:
        column = token.column if token else len(self.text) + 1
        return ParseError(message, self.lineno, column, self.text)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, kind: str, value: str | None = None) -> bool:
        token = self.peek()
        return token is not None and token.kind == kind and value in (None, token.value)

    def expect(self, expected: str, kind: str, values: tuple = ()) -> _Token:
        """Take the next token, which must be of kind and, when values are
        given, one of them; else raise `expected {expected}`."""
        token = self.peek()
        if token is None:
            raise self.error(f"expected {expected}")
        if token.kind != kind or values and token.value not in values:
            raise self.error(f"expected {expected}, got {token.value!r}", token)
        self.pos += 1
        return token

    def known(self, token: _Token, table, problem: str) -> _Token:
        """token, whose value must be a key of table; else raise the problem."""
        if token.value not in table:
            raise self.error(f"{problem} {token.value!r}", token)
        return token

    def punct(self, value: str) -> _Token:
        return self.expect(f"'{value}'", "punct", (value,))

    def ident(self, expected: str) -> _Token:
        token = self.expect(expected, "word")
        if not IDENT_RE.match(token.value):
            raise self.error(f"invalid identifier {token.value!r}", token)
        return token

    def done(self) -> None:
        token = self.peek()
        if token is not None:
            raise self.error(f"unexpected trailing {token.value!r}", token)


def _more(stmt: _Statement, closer: str) -> bool:
    """Take a ',' or the closer of a list; true when another item follows."""
    return stmt.expect(f"',' or '{closer}'", "punct", (",", closer)).value == ","


def _parse_strings(stmt: _Statement) -> list:
    """The strings of a list, from its '[' to its ']'."""
    stmt.punct("[")
    values = [stmt.expect("string", "string").value]
    while _more(stmt, "]"):
        values.append(stmt.expect("string", "string").value)
    return values


def _parse_attrs(stmt: _Statement) -> dict:
    attrs: dict = {}
    stmt.punct("{")
    if stmt.at("punct", "}"):
        stmt.punct("}")
        return attrs
    while True:
        key = stmt.ident("attribute name")
        if key.value in attrs:
            raise stmt.error(f"duplicate attribute {key.value!r}", key)
        stmt.punct("=")
        if stmt.at("string"):
            attrs[key.value] = stmt.expect("string", "string").value
        elif stmt.at("punct", "["):
            attrs[key.value] = _parse_strings(stmt)
        else:
            flag = stmt.expect("attribute value", "word", ("true", "false"))
            attrs[key.value] = flag.value == "true"
        if not _more(stmt, "}"):
            return attrs


def _parse_endpoints(stmt: _Statement, graph: InstanceGraph, arrows: tuple) -> tuple:
    """The source, arrow and target tokens of `source arrow target`, where
    the arrow is one of arrows and both ends are declared entities."""
    source = stmt.ident("source entity id")
    arrow = stmt.expect(" or ".join(f"'{arrow}'" for arrow in arrows), "punct", arrows)
    target = stmt.ident("target entity id")
    for endpoint in (source, target):
        stmt.known(endpoint, graph.entities, "unknown entity")
    return source, arrow, target


def _parse_entity(stmt: _Statement, graph: InstanceGraph) -> None:
    id_token = stmt.ident("entity id")
    stmt.punct(":")
    code = stmt.expect("entity type code", "word")
    stmt.known(code, _ENTITY_TYPES, "unknown entity type code")
    attrs = _parse_attrs(stmt) if stmt.at("punct", "{") else {}
    stmt.done()
    graph._insert_entity(id_token.value, _ENTITY_TYPES[code.value], attrs)


def _parse_package(stmt: _Statement, graph: InstanceGraph) -> None:
    id_token = stmt.ident("package id")
    description = stmt.expect("string", "string").value if stmt.at("string") else ""
    items: list = []
    if stmt.at("word", "items"):
        stmt.expect("'items'", "word")
        items = _parse_strings(stmt)
    derives: list[str] = []
    if stmt.at("word", "derives"):
        stmt.expect("'derives'", "word")
        while True:
            ancestor = stmt.ident("package id")
            stmt.known(ancestor, graph.packages, "derives from undeclared package")
            derives.append(ancestor.value)
            if not stmt.at("punct", ","):
                break
            stmt.punct(",")
    stmt.done()
    graph._insert_package(id_token.value, description, items, derives)


def _parse_relation(stmt: _Statement, graph: InstanceGraph) -> None:
    id_token = stmt.ident("relation id")
    stmt.punct(":")
    name = stmt.expect("relation name", "word")
    stmt.known(name, builtin_schema().semantic_relations, "unknown semantic relation")
    source, _, target = _parse_endpoints(stmt, graph, ("->",))
    attrs = _parse_attrs(stmt) if stmt.at("punct", "{") else {}
    stmt.done()
    graph._insert_relation(id_token.value, name.value, source.value, target.value, attrs)


def _parse_flow(stmt: _Statement, graph: InstanceGraph) -> None:
    id_token = stmt.ident("flow id")
    stmt.punct(":")
    edge = stmt.expect("flow edge type code", "word")
    stmt.known(edge, builtin_schema().flow_edge_types, "unknown flow edge type")
    source, arrow, target = _parse_endpoints(stmt, graph, ("->", "<->"))
    if source.value == target.value:
        raise stmt.error(f"flow connects {source.value!r} to itself", target)
    stmt.expect("'package'", "word", ("package",))
    package = stmt.known(stmt.ident("package id"), graph.packages, "undeclared package")
    stmt.done()
    graph._insert_flow(
        id_token.value, edge.value, source.value, arrow.value, target.value, package.value
    )


def _parse_line(text: str, lineno: int, graph: InstanceGraph | None) -> InstanceGraph | None:
    """Execute one line through the token cursor, which diagnoses every
    error; return the graph, which the header line creates. A GraphError
    from the graph's insert is reported at the statement's id."""
    tokens = _tokenize(text, lineno)
    if not tokens:
        return graph
    stmt = _Statement(tokens, text, lineno)
    head = stmt.expect("statement keyword", "word")
    if graph is None:
        if head.value != "scenario":
            raise stmt.error("expected 'scenario' header", head)
        name = stmt.expect("scenario name", "string")
        stmt.done()
        if not name.value:
            raise stmt.error("scenario name must be non-empty", name)
        return new_scenario(name.value)
    if head.value == "scenario":
        raise stmt.error("duplicate 'scenario' header", head)
    *_, parse_statement = _STATEMENTS[stmt.known(head, _STATEMENTS, "unknown statement").value]
    try:
        parse_statement(stmt, graph)
    except GraphError as exc:
        raise stmt.error(str(exc), tokens[1]) from exc
    return graph


# -- fast path ---------------------------------------------------------------
#
# One whole-line pattern per statement keyword, for the single-space form
# that serialize emits. A matched line is executed straight from its groups
# by the graph insert the cursor calls. The patterns prove every id, so the
# fast path itself checks only what no pattern can: that the type code is
# instantiable, and that the items of an attribute map are well formed and
# no key repeats. The insert checks duplicate ids and flow pairs, dangling
# references, relation names, edge types, self-loops and reserved
# attributes, and a GraphError from it leaves the graph as it was. A clause
# that a line does not have is an absent group, and its field is empty. A
# line that does not match, fails a check or is rejected goes to
# _parse_line, which executes it or diagnoses it.

_STRINGS = rf"{_STRING}(?:, {_STRING})*"
# One item of an attribute map and the ", " before the next.
_ATTR_RE = re.compile(
    rf"({IDENT}) = (?:({_STRING})|(true|false)|\[({_STRINGS})\])(?:, (?=.)|\Z)"
)
_ENTITY_RE = re.compile(rf"entity ({IDENT}): ({IDENT})(?: \{{(.+)\}})?")
_PACKAGE_RE = re.compile(
    rf"package ({IDENT})(?: ({_STRING}))?(?: items \[({_STRINGS})\])?"
    rf"(?: derives ({IDENT}(?:, {IDENT})*))?"
)
_RELATION_RE = re.compile(
    rf"relation ({IDENT}): ({IDENT}) ({IDENT}) -> ({IDENT})(?: \{{(.+)\}})?"
)
_FLOW_RE = re.compile(
    rf"flow ({IDENT}): ({IDENT}) ({IDENT}) (<?->) ({IDENT}) package ({IDENT})"
)


def _strings(text: str) -> list:
    return [_unquote(string) for string in _STRING_RE.findall(text)]


def _attr_map(text: str | None) -> dict | None:
    """The attributes between the braces of a map; None unless the items
    are all well formed and no key repeats."""
    attrs: dict = {}
    pos = 0
    while text and pos < len(text):
        item = _ATTR_RE.match(text, pos)
        if item is None:
            return None
        key, string, flag, strings = item.groups()
        if key in attrs:
            return None
        if string:
            attrs[key] = _unquote(string)
        elif flag:
            attrs[key] = flag == "true"
        else:
            attrs[key] = _strings(strings)
        pos = item.end()
    return attrs


def _fast_entity(graph: InstanceGraph, id_, code, attrs) -> InstanceGraph | bool:
    attrs = _attr_map(attrs)
    etype = _ENTITY_TYPES.get(code)
    if attrs is None or etype is None:
        return False
    return graph._insert_entity(id_, etype, attrs)


def _fast_package(graph: InstanceGraph, id_, description, items, derives) -> InstanceGraph:
    description = _unquote(description) if description else ""
    items = _strings(items) if items else []
    derives = derives.split(", ") if derives else ()
    return graph._insert_package(id_, description, items, derives)


def _fast_relation(
    graph: InstanceGraph, id_, name, source, target, attrs
) -> InstanceGraph | bool:
    attrs = _attr_map(attrs)
    if attrs is None:
        return False
    return graph._insert_relation(id_, name, source, target, attrs)


# Each statement keyword with its line pattern, its fast executor and its
# cursor parser. A fast executor returns False when the line needs the
# cursor, else the graph that its insert returns. A flow line's groups are
# the insert's own arguments.
_STATEMENTS = {
    "entity": (_ENTITY_RE, _fast_entity, _parse_entity),
    "package": (_PACKAGE_RE, _fast_package, _parse_package),
    "relation": (_RELATION_RE, _fast_relation, _parse_relation),
    "flow": (_FLOW_RE, InstanceGraph._insert_flow, _parse_flow),
}


def _execute_fast(text: str, graph: InstanceGraph) -> bool:
    """Execute a well-formed statement line. False, with the graph
    unchanged, when the line needs the cursor."""
    statement = _STATEMENTS.get(text.partition(" ")[0])
    if statement is None:
        return False
    pattern, execute, _ = statement
    match = pattern.fullmatch(text)
    if match is None:
        return False
    try:
        return execute(graph, *match.groups()) is not False
    except GraphError:
        return False


def parse(source: str) -> InstanceGraph:
    """Parse scenario text into an instance graph.

    Raises ParseError with a 1-based line and column on the first problem,
    whether lexical, structural, or a rejected graph mutation.
    """
    graph: InstanceGraph | None = None
    lines = source.split("\n")
    if "\r" in source:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    for lineno, text in enumerate(lines, start=1):
        if text and (graph is None or not _execute_fast(text, graph)):
            graph = _parse_line(text, lineno, graph)
    if graph is None:
        raise ParseError("empty input: expected 'scenario' header", max(1, len(lines)), 1, "")
    return graph


# -- serialization ---------------------------------------------------------


def _quote(text: str) -> str:
    # A chain of replace calls, backslash first: str.translate with a table
    # that maps characters to two-character strings takes CPython's slow
    # per-character path, two to four times slower on typical values.
    return (
        '"'
        + text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
        .replace("\r", "\\r")
        + '"'
    )


def _check_lexicon(id_: str, kind: str) -> None:
    if not isinstance(id_, str) or not IDENT_RE.match(id_):
        raise MalformedGraphError(f"{kind} id {_shown(id_)} is not a serializable identifier")


def _attrs(kind: str, id_: str, attrs: dict) -> str:
    """The ` {key = value, ...}` suffix that writes the attributes of record
    id_, keys sorted; the caller writes "" for an empty map. Raises
    MalformedGraphError on the first key or value, in that order, that parse
    could not read back."""
    if not isinstance(attrs, dict):
        raise not_a_map(f"{kind} {id_!r}", attrs)
    items = []
    # key=str orders text keys as plain sorting does, and keys that are not
    # text without raising, so that _check_lexicon reports them.
    for key in sorted(attrs, key=str):
        _check_lexicon(key, "attribute")
        value = attrs[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, str):
            value = _quote(value)
        elif isinstance(value, list) and value and all(isinstance(i, str) for i in value):
            value = "[" + ", ".join(_quote(i) for i in value) + "]"
        else:
            raise MalformedGraphError(f"attribute value {_shown(value)} is not expressible")
        items.append(f"{key} = {value}")
    return " {" + ", ".join(items) + "}"


def _package_order(graph: InstanceGraph) -> list[str]:
    """Lexicographic order, except that a package never precedes one it
    derives from (parse executes statements in file order)."""
    if all(
        ancestor < pid for pid, package in graph.packages.items()
        for ancestor in package.derives_from
    ):
        return sorted(graph.packages)  # what the heap below would yield
    import heapq  # only a package derived from one with a larger id needs it

    dependants: dict[str, list[str]] = {pid: [] for pid in graph.packages}
    indegree = {pid: 0 for pid in graph.packages}
    for pid, package in graph.packages.items():
        for ancestor in package.derives_from:
            dependants[ancestor].append(pid)
            indegree[pid] += 1
    heap = [pid for pid, degree in indegree.items() if degree == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        pid = heapq.heappop(heap)
        order.append(pid)
        for child in dependants[pid]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(heap, child)
    if len(order) != len(graph.packages):
        raise MalformedGraphError("package derivations contain a cycle")
    return order


def _flow_statements(graph: InstanceGraph) -> list[tuple]:
    """The (id, arrow, flow) of each flow statement, sorted by id: a plain
    flow, or a pair's .fwd half under its base id. Raises MalformedGraphError
    on an id that is also the base of a pair, then on a plain id that is not
    an identifier, then on a pair that cannot be written, each in id order."""
    plain: dict = {}
    halves: dict[str, dict] = {}
    for flow_id, flow in sorted(graph.flows.items()):
        base, dot, suffix = flow_id.partition(".")
        if dot and suffix in ("fwd", "rev"):
            halves.setdefault(base, {})[suffix] = flow
        else:
            plain[flow_id] = flow
    collisions = plain.keys() & halves.keys()
    if collisions:
        raise MalformedGraphError(
            f"flow id {min(collisions)!r} is used both directly and as a "
            "bidirectional pair; the serialized form would not round-trip"
        )
    if not all(map(IDENT_RE.match, plain)):
        for flow_id in plain:
            _check_lexicon(flow_id, "flow")
    statements = [(flow_id, "->", flow) for flow_id, flow in plain.items()]
    clean_ids = all(map(IDENT_RE.match, halves))
    for base, pair in halves.items():
        if not clean_ids:
            _check_lexicon(base, "flow")
        fwd, rev = pair.get("fwd"), pair.get("rev")
        if (
            fwd is None
            or rev is None
            or (rev.edge_type, rev.source, rev.target, rev.package)
            != (fwd.edge_type, fwd.target, fwd.source, fwd.package)
        ):
            raise MalformedGraphError(f"flows {base!r}.fwd/.rev do not form a bidirectional pair")
        statements.append((base, "<->", fwd))
    # A base sorts where its .fwd half would: "." precedes every identifier
    # character.
    statements.sort()
    return statements


def serialize(graph: InstanceGraph) -> str:
    """Emit canonical scenario text for a well-formed graph. Raises
    MalformedGraphError on the first thing parse could not read back,
    including every reference problem validate reports, in the order the
    sorted sections are written, so the error depends on graph content only."""
    if not graph.name:
        raise MalformedGraphError("scenario name must be non-empty")
    if not isinstance(graph.name, str):
        raise name_not_text(graph.name)
    check_references(graph)
    schema = builtin_schema()
    entities = []
    clean_ids = all(map(IDENT_RE.match, graph.entities))
    for entity_id, entity in sorted(graph.entities.items()):
        if not clean_ids:
            _check_lexicon(entity_id, "entity")
        etype = entity.entity_type
        code = _CODES.get(etype) if isinstance(etype, EntityType) else None
        if code is None:
            raise MalformedGraphError(
                f"entity {entity_id!r} has unserializable type {_shown(etype)}"
            )
        attrs = entity.attributes
        suffix = "" if attrs == {} else _attrs("entity", entity_id, attrs)
        if suffix:
            problems = check_entity_attributes(schema, etype, attrs)
            if problems:
                raise MalformedGraphError(f"entity {entity_id!r}: " + "; ".join(problems))
        entities.append(f"entity {entity_id}: {code}{suffix}")
    packages = []
    clean_ids = all(map(IDENT_RE.match, graph.packages))
    for package_id in _package_order(graph):
        if not clean_ids:
            _check_lexicon(package_id, "package")
        package = graph.packages[package_id]
        derives = package.derives_from
        if len(derives) > 1 and len(set(derives)) < len(derives):
            twice = next(p for p in derives if derives.count(p) > 1)
            raise MalformedGraphError(f"package {package_id!r} lists derivation {twice!r} twice")
        if not isinstance(package.description, str):
            raise MalformedGraphError(f"package {package_id!r} description must be text")
        if not isinstance(package.items, (tuple, list)) or not all(
            isinstance(item, str) for item in package.items
        ):
            raise items_not_text(package_id)
        line = f"package {package_id}"
        if package.description:
            line += f" {_quote(package.description)}"
        if package.items:
            line += " items [" + ", ".join(_quote(i) for i in package.items) + "]"
        if derives:
            line += " derives " + ", ".join(derives)
        packages.append(line)
    relations = []
    clean_ids = all(map(IDENT_RE.match, graph.relations))
    for relation_id, relation in sorted(graph.relations.items()):
        if not clean_ids:
            _check_lexicon(relation_id, "relation")
        attrs = relation.attributes
        suffix = "" if attrs == {} else _attrs("relation", relation_id, attrs)
        relations.append(
            f"relation {relation_id}: {relation.relation} {relation.source} -> "
            f"{relation.target}{suffix}"
        )
    flows = [
        f"flow {flow_id}: {flow.edge_type} {flow.source} {arrow} {flow.target} "
        f"package {flow.package}"
        for flow_id, arrow, flow in _flow_statements(graph)
    ]
    sections = [[f"scenario {_quote(graph.name)}"], entities, packages, relations, flows]
    return "\n\n".join("\n".join(section) for section in sections if section) + "\n"

"""Line-oriented scenario text format.

One statement per line, `#` comments, UTF-8 with LF line endings (CRLF is
accepted on input). A file opens with a `scenario` header followed by
entity, package, relation, and flow statements. Parsing executes the
corresponding graph mutations in file order, so references must be
declared before use; the first error aborts with its position.

`serialize` emits the canonical form: sections in a fixed order, each
sorted by id, attribute keys sorted, and paired `.fwd`/`.rev` flows
re-sugared to a single `<->` statement. Parsing the canonical form gives
back a structurally equal graph.
"""
from __future__ import annotations

import heapq
import re
from typing import NamedTuple

from vdse.errors import GraphError, MalformedGraphError, ParseError
from vdse.graph import (
    DataPackage,
    FlowInstance,
    IDENT_RE,
    InstanceGraph,
    new_scenario,
)
from vdse.schema import EntityType, INSTANTIABLE_TYPE_CODES, builtin_schema
from vdse.validate import check_references

__all__ = ["parse", "serialize"]

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_UNESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_ESCAPE_RE = re.compile(r"\\(.)")
# One alternative per token kind, tried in order. A quote that does not
# make a whole string matches "open", which stops at the first backslash
# without a valid escape, or at the end of the line. A word must start with
# a letter, which the tokenizer checks: \w also matches digits, "_" and
# other numeric characters such as "²".
_TOKEN_RE = re.compile(
    r"""(?P<space>[ \t]+)
    |(?P<comment>\#)
    |(?P<string>"[^"\\]*(?:\\[\\"ntr][^"\\]*)*")
    |(?P<open>"[^"\\]*(?:\\[\\"ntr][^"\\]*)*)
    |(?P<word>\w+)
    |(?P<punct><->|->|[:,={}\[\]])
    |(?P<other>.)""",
    re.VERBOSE,
)


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
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(lambda escape: _ESCAPES[escape[1]], value)
        elif kind == "open":
            if match.end() < len(text):
                raise ParseError("invalid escape sequence", lineno, match.end() + 1, text)
            raise ParseError("unterminated string", lineno, column, text)
        elif kind == "other" or kind == "word" and not value[0].isalpha():
            raise ParseError(f"unexpected character {value[0]!r}", lineno, column, text)
        tokens.append(_Token(kind, value, column))
    return tokens


class _Statement:
    """Cursor over one line's tokens with position-carrying errors."""

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

    def take(self, expected: str) -> _Token:
        token = self.peek()
        if token is None:
            raise self.error(f"expected {expected}")
        self.pos += 1
        return token

    def punct(self, value: str) -> _Token:
        token = self.take(f"'{value}'")
        if token.kind != "punct" or token.value != value:
            raise self.error(f"expected '{value}', got {token.value!r}", token)
        return token

    def word(self, expected: str = "identifier") -> _Token:
        token = self.take(expected)
        if token.kind != "word":
            raise self.error(f"expected {expected}, got {token.value!r}", token)
        return token

    def ident(self, expected: str = "identifier") -> _Token:
        token = self.word(expected)
        if not IDENT_RE.match(token.value):
            raise self.error(f"invalid identifier {token.value!r}", token)
        return token

    def string(self, expected: str = "string") -> _Token:
        token = self.take(expected)
        if token.kind != "string":
            raise self.error(f"expected {expected}, got {token.value!r}", token)
        return token

    def done(self) -> None:
        token = self.peek()
        if token is not None:
            raise self.error(f"unexpected trailing {token.value!r}", token)

    def at_word(self, value: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "word" and token.value == value

    def at_punct(self, value: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "punct" and token.value == value


def _parse_strings(stmt: _Statement) -> list:
    """The strings of a list whose '[' has been taken, up to its ']'."""
    values = []
    while True:
        values.append(stmt.string().value)
        token = stmt.take("',' or ']'")
        if token.kind == "punct" and token.value == "]":
            return values
        if not (token.kind == "punct" and token.value == ","):
            raise stmt.error(f"expected ',' or ']', got {token.value!r}", token)


def _parse_attrs(stmt: _Statement) -> dict:
    attrs: dict = {}
    stmt.punct("{")
    token = stmt.peek()
    if token and token.kind == "punct" and token.value == "}":
        stmt.punct("}")
        return attrs
    while True:
        key = stmt.ident("attribute name")
        if key.value in attrs:
            raise stmt.error(f"duplicate attribute {key.value!r}", key)
        stmt.punct("=")
        token = stmt.take("attribute value")
        if token.kind == "string":
            attrs[key.value] = token.value
        elif token.kind == "word" and token.value in ("true", "false"):
            attrs[key.value] = token.value == "true"
        elif token.kind == "punct" and token.value == "[":
            attrs[key.value] = _parse_strings(stmt)
        else:
            raise stmt.error(f"expected attribute value, got {token.value!r}", token)
        token = stmt.take("',' or '}'")
        if token.kind == "punct" and token.value == "}":
            return attrs
        if not (token.kind == "punct" and token.value == ","):
            raise stmt.error(f"expected ',' or '}}', got {token.value!r}", token)


def _wrap_build(stmt: _Statement, token: _Token, action) -> None:
    try:
        action()
    except GraphError as exc:
        raise stmt.error(str(exc), token) from exc


def _parse_entity(stmt: _Statement, graph: InstanceGraph) -> None:
    id_token = stmt.ident("entity id")
    stmt.punct(":")
    type_token = stmt.word("entity type code")
    if type_token.value not in INSTANTIABLE_TYPE_CODES:
        raise stmt.error(f"unknown entity type code {type_token.value!r}", type_token)
    attrs = _parse_attrs(stmt) if stmt.at_punct("{") else {}
    stmt.done()
    _wrap_build(
        stmt, id_token, lambda: graph.add_entity(id_token.value, type_token.value, attrs)
    )


def _parse_package(stmt: _Statement, graph: InstanceGraph) -> None:
    id_token = stmt.ident("package id")
    description = ""
    token = stmt.peek()
    if token and token.kind == "string":
        description = stmt.string().value
    items: list = []
    if stmt.at_word("items"):
        stmt.word()
        stmt.punct("[")
        items = _parse_strings(stmt)
    derives: list[str] = []
    if stmt.at_word("derives"):
        stmt.word()
        while True:
            ancestor = stmt.ident("package id")
            if ancestor.value not in graph.packages:
                raise stmt.error(
                    f"derives from undeclared package {ancestor.value!r}", ancestor
                )
            derives.append(ancestor.value)
            token = stmt.peek()
            if token and token.kind == "punct" and token.value == ",":
                stmt.punct(",")
                continue
            break
    stmt.done()
    package = DataPackage(id_token.value, description, items, tuple(derives))
    _wrap_build(stmt, id_token, lambda: graph.add_package(package))


def _parse_relation(stmt: _Statement, graph: InstanceGraph) -> None:
    id_token = stmt.ident("relation id")
    stmt.punct(":")
    name_token = stmt.word("relation name")
    if name_token.value not in builtin_schema().semantic_relations:
        raise stmt.error(f"unknown semantic relation {name_token.value!r}", name_token)
    source = stmt.ident("source entity id")
    stmt.punct("->")
    target = stmt.ident("target entity id")
    for endpoint in (source, target):
        if endpoint.value not in graph.entities:
            raise stmt.error(f"unknown entity {endpoint.value!r}", endpoint)
    attrs = _parse_attrs(stmt) if stmt.at_punct("{") else {}
    stmt.done()
    _wrap_build(
        stmt,
        id_token,
        lambda: graph.add_semantic_relation(
            id_token.value, name_token.value, source.value, target.value, attrs
        ),
    )


def _parse_flow(stmt: _Statement, graph: InstanceGraph) -> None:
    id_token = stmt.ident("flow id")
    stmt.punct(":")
    edge_token = stmt.word("flow edge type code")
    if edge_token.value not in builtin_schema().flow_edge_types:
        raise stmt.error(f"unknown flow edge type {edge_token.value!r}", edge_token)
    source = stmt.ident("source entity id")
    arrow = stmt.take("'->' or '<->'")
    if arrow.kind != "punct" or arrow.value not in ("->", "<->"):
        raise stmt.error(f"expected '->' or '<->', got {arrow.value!r}", arrow)
    target = stmt.ident("target entity id")
    for endpoint in (source, target):
        if endpoint.value not in graph.entities:
            raise stmt.error(f"unknown entity {endpoint.value!r}", endpoint)
    if source.value == target.value:
        raise stmt.error(f"flow connects {source.value!r} to itself", target)
    keyword = stmt.word("'package'")
    if keyword.value != "package":
        raise stmt.error(f"expected 'package', got {keyword.value!r}", keyword)
    package = stmt.ident("package id")
    if package.value not in graph.packages:
        raise stmt.error(f"undeclared package {package.value!r}", package)
    stmt.done()
    add = graph.add_flow if arrow.value == "->" else graph.add_bidirectional_flow
    _wrap_build(
        stmt,
        id_token,
        lambda: add(id_token.value, edge_token.value, source.value, target.value, package.value),
    )


_STATEMENT_PARSERS = {
    "entity": _parse_entity,
    "package": _parse_package,
    "relation": _parse_relation,
    "flow": _parse_flow,
}


def parse(source: str) -> InstanceGraph:
    """Parse scenario text into an instance graph.

    Raises ParseError with a 1-based line and column on the first problem,
    whether lexical, structural, or a rejected graph mutation.
    """
    graph: InstanceGraph | None = None
    lines = source.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        text = raw[:-1] if raw.endswith("\r") else raw
        tokens = _tokenize(text, lineno)
        if not tokens:
            continue
        stmt = _Statement(tokens, text, lineno)
        head = stmt.word("statement keyword")
        if graph is None:
            if head.value != "scenario":
                raise stmt.error("expected 'scenario' header", head)
            name = stmt.string("scenario name")
            stmt.done()
            if not name.value:
                raise stmt.error("scenario name must be non-empty", name)
            graph = new_scenario(name.value)
            continue
        if head.value == "scenario":
            raise stmt.error("duplicate 'scenario' header", head)
        parser = _STATEMENT_PARSERS.get(head.value)
        if parser is None:
            raise stmt.error(f"unknown statement {head.value!r}", head)
        parser(stmt, graph)
    if graph is None:
        raise ParseError("empty input: expected 'scenario' header", max(1, len(lines)), 1, "")
    return graph


# -- serialization ---------------------------------------------------------


def _quote(text: str) -> str:
    return '"' + "".join(_UNESCAPES.get(ch, ch) for ch in text) + '"'


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, list) and value and all(isinstance(i, str) for i in value):
        return "[" + ", ".join(_quote(i) for i in value) + "]"
    raise MalformedGraphError(f"attribute value {value!r} is not expressible")


def _check_lexicon(id_: str, kind: str) -> str:
    if not IDENT_RE.match(id_):
        raise MalformedGraphError(f"{kind} id {id_!r} is not a serializable identifier")
    return id_


def _format_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    pairs = ", ".join(
        f"{_check_lexicon(key, 'attribute')} = {_format_value(attrs[key])}"
        for key in sorted(attrs)
    )
    return " {" + pairs + "}"


def _package_order(graph: InstanceGraph) -> list[str]:
    """Lexicographic order, except that a package never precedes one it
    derives from (parse executes statements in file order)."""
    dependants: dict[str, list[str]] = {pid: [] for pid in graph.packages}
    indegree = {pid: 0 for pid in graph.packages}
    for package in graph.packages.values():
        for ancestor in package.derives_from:
            dependants[ancestor].append(package.id)
            indegree[package.id] += 1
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


def _flow_statements(graph: InstanceGraph) -> list[tuple[str, int, str]]:
    plain: list[FlowInstance] = []
    halves: dict[str, dict[str, FlowInstance]] = {}
    for flow in graph.flows.values():
        base, dot, suffix = flow.id.partition(".")
        if dot and suffix in ("fwd", "rev"):
            halves.setdefault(base, {})[suffix] = flow
        else:
            plain.append(flow)
    collisions = {flow.id for flow in plain} & set(halves)
    if collisions:
        raise MalformedGraphError(
            f"flow id {sorted(collisions)[0]!r} is used both directly and as a "
            "bidirectional pair; the serialized form would not round-trip"
        )
    statements: list[tuple[str, int, str]] = []
    for flow in plain:
        _check_lexicon(flow.id, "flow")
        statements.append(
            (
                flow.id,
                0,
                f"flow {flow.id}: {flow.edge_type} {flow.source} -> {flow.target} "
                f"package {flow.package}",
            )
        )
    for base in halves:
        _check_lexicon(base, "flow")
        pair = halves[base]
        fwd, rev = pair.get("fwd"), pair.get("rev")
        if (
            fwd is None
            or rev is None
            or fwd.source != rev.target
            or fwd.target != rev.source
            or fwd.edge_type != rev.edge_type
            or fwd.package != rev.package
        ):
            raise MalformedGraphError(
                f"flows {base!r}.fwd/.rev do not form a bidirectional pair"
            )
        statements.append(
            (
                base,
                1,
                f"flow {base}: {fwd.edge_type} {fwd.source} <-> {fwd.target} "
                f"package {fwd.package}",
            )
        )
    statements.sort(key=lambda item: (item[0], item[1]))
    return statements


def serialize(graph: InstanceGraph) -> str:
    """Emit canonical scenario text for a well-formed graph. Raises
    MalformedGraphError on what parse could not read back, including every
    reference problem validate reports."""
    if not graph.name:
        raise MalformedGraphError("scenario name must be non-empty")
    check_references(graph)
    sections: list[list[str]] = [[f"scenario {_quote(graph.name)}"]]

    entities = []
    for entity_id in sorted(graph.entities):
        entity = graph.entities[entity_id]
        _check_lexicon(entity_id, "entity")
        if not isinstance(entity.entity_type, EntityType) or (
            entity.entity_type.code not in INSTANTIABLE_TYPE_CODES
        ):
            raise MalformedGraphError(
                f"entity {entity_id!r} has unserializable type {entity.entity_type!r}"
            )
        entities.append(
            f"entity {entity_id}: {entity.entity_type.code}{_format_attrs(entity.attributes)}"
        )
    if entities:
        sections.append(entities)

    packages = []
    for package_id in _package_order(graph):
        package = graph.packages[package_id]
        _check_lexicon(package_id, "package")
        line = f"package {package_id}"
        if package.description:
            line += f" {_quote(package.description)}"
        if package.items:
            line += " items [" + ", ".join(_quote(i) for i in package.items) + "]"
        if package.derives_from:
            line += " derives " + ", ".join(package.derives_from)
        packages.append(line)
    if packages:
        sections.append(packages)

    relations = []
    for relation_id in sorted(graph.relations):
        relation = graph.relations[relation_id]
        _check_lexicon(relation_id, "relation")
        relations.append(
            f"relation {relation_id}: {relation.relation} {relation.source} -> "
            f"{relation.target}{_format_attrs(relation.attributes)}"
        )
    if relations:
        sections.append(relations)

    flow_lines = [line for _, _, line in _flow_statements(graph)]
    if flow_lines:
        sections.append(flow_lines)

    return "\n\n".join("\n".join(section) for section in sections) + "\n"

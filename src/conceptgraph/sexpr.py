"""Minimal s-expression reader/writer for the text formats."""

from __future__ import annotations

# Deepest list nesting `parse_one` reads.  It reads teach lines, which nest
# 2 deep, and example labels (`fnsynth.parse_examples_text`), which must be
# atoms; the bound keeps the recursive reader far from the interpreter's
# stack limit.
MAX_DEPTH = 64


def quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ValueError("unterminated string literal")
            tokens.append('"' + "".join(out))
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _read(tokens: list[str], pos: int, depth: int):
    token = tokens[pos]
    if token == "(":
        if depth == MAX_DEPTH:
            raise ValueError(f"expression nests deeper than {MAX_DEPTH}")
        out = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos, depth + 1)
            out.append(item)
        if pos >= len(tokens):
            raise ValueError("unbalanced parentheses")
        return out, pos + 1
    if token == ")":
        raise ValueError("unexpected ')'")
    if token.startswith('"'):
        return token[1:], pos + 1
    return token, pos + 1


def parse_one(text: str):
    """Parse a single expression; atoms are returned as plain strings.

    Raises ValueError for malformed text or nesting deeper than `MAX_DEPTH`.
    """
    tokens = tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    node, pos = _read(tokens, 0, 0)
    if pos != len(tokens):
        raise ValueError("trailing tokens after expression")
    return node

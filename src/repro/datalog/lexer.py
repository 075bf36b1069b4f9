"""Tokenizer for the LBTrust Datalog dialect (shared by all front-ends).

The token stream records, for every token, whether it was *glued* to the
previous token (no intervening whitespace or comment).  Gluing
disambiguates four constructs the paper's dialect needs:

* qualified predicate names ``message:id`` (glued colons) versus statement
  labels ``m2: message:id(...)`` (colon followed by space),
* Kleene stars ``T*`` inside quoted patterns (glued ``*``) versus
  multiplication ``N * 2``,
* partitioned atoms ``export[me](...)`` (glued bracket) versus list
  indexing, which the dialect does not have,
* modulo ``X%2`` (glued ``%``) versus a ``%`` line comment.

One compiled regular expression reads every token; numbers are ASCII
digits only, so ``²`` or ``٣`` is an unexpected character, not a number.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

#: Multi-character punctuation, longest first (greedy matching).  ``%``
#: is read by its own branch: glued it is modulo, else a line comment.
_PUNCT = [
    "[|", "|]", "<<", ">>", "<-", "->", ":-", "<=", ">=", "!=",
    "(", ")", "[", "]", "{", "}", "<", ">", "=", "+", "-", "*", "/",
    ",", ";", "!", ".", "@", ":",
]

#: Words with dedicated token kinds.  ``says`` and ``At`` stay IDENT: in the
#: core dialect ``says`` is an ordinary predicate; the Binder and SeNDlog
#: front-ends recognize them contextually.
_KEYWORDS = {"me", "true", "false", "agg"}

#: The well-formed part of a string literal, escapes included.
_STRING_BODY = r'"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*'

#: One token, run of whitespace or block comment, or line comment start
#: per match; the group that matched names the token kind.  ``unclosed``
#: and ``quote`` catch a block comment or string literal that is not well
#: formed, and ``word`` a non-ASCII word, whose first character must be a
#: letter.  The commonest kinds are tried first: a ``/`` is punctuation
#: only where it starts no comment, so no earlier branch takes a later
#: one's text.
_TOKEN = re.compile("|".join([
    r"(?P<IDENT>[a-z][\w']*)",
    "(?P<PUNCT>" + "|".join(re.escape(p) + ("(?![/*])" if p == "/" else "")
                            for p in _PUNCT) + ")",
    f'(?P<STRING>{_STRING_BODY}")',
    r"(?P<VAR>[A-Z_][\w']*)",
    r"(?P<HEX>0x[0-9a-fA-F]+)",
    r"(?P<FLOAT>[0-9]+\.[0-9]+)",
    r"(?P<INT>[0-9]+)",
    r"(?P<skip>[ \t\r\n]+|/\*.*?\*/)",
    r"(?P<comment>//|%)",
    r"(?P<unclosed>/\*)",
    r'(?P<quote>")',
    r"(?P<REFID>\$r[0-9]+)",
    r"(?P<word>[^\W\d][\w']*)",
]), re.DOTALL)

_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class Token(NamedTuple):
    kind: str          # IDENT VAR INT FLOAT STRING HEX REFID PUNCT KEYWORD EOF
    text: str
    line: int
    column: int
    glued: bool        # True if no whitespace separates it from the previous token


def tokenize(source: str) -> list[Token]:
    """Convert source text to a token list, ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__   # a Token without a Python-level constructor call
    match = _TOKEN.match
    length = len(source)
    pos = line_start = 0
    line = 1
    glued = False
    while pos < length:
        found = match(source, pos)
        if found is None:
            raise ParseError(f"unexpected character {source[pos]!r}",
                             line, pos - line_start + 1)
        kind = found.lastgroup
        end = found.end()
        if kind == "skip":
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
            glued = False
            pos = end
            continue
        if kind == "comment":
            if not glued or source[pos] == "/":
                end = source.find("\n", pos)
                if end < 0:
                    break  # EOF sits where a comment running to the end starts
                pos = end
                continue
            kind = "PUNCT"  # a glued % is modulo
        text = found.group()
        if kind == "IDENT":
            if text in _KEYWORDS:
                kind = "KEYWORD"
        elif kind == "STRING":
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], text)
        elif kind == "word":
            first = text[0]
            if not first.isalpha():
                raise ParseError(f"unexpected character {first!r}",
                                 line, pos - line_start + 1)
            kind = "VAR" if first.isupper() else "IDENT"
        elif kind == "unclosed":
            raise ParseError("unterminated block comment",
                             line, pos - line_start + 1)
        elif kind == "quote":
            raise _string_error(source, pos, line, pos - line_start + 1)
        append(new(Token, (kind, text, line, pos - line_start + 1, glued)))
        glued = True
        pos = end
    append(Token("EOF", "", line, pos - line_start + 1, False))
    return tokens


def _string_error(source: str, start: int, line: int, column: int) -> ParseError:
    """The error for the string literal at ``start`` that does not close,
    reported where its well-formed part ends."""
    end = _STRING_PREFIX.match(source, start).end()
    column += end - start
    if end == len(source):
        return ParseError("unterminated string literal", line, column)
    if source[end] == "\n":
        return ParseError("newline in string literal", line, column)
    if end + 1 == len(source):
        return ParseError("dangling escape in string literal", line, column)
    return ParseError(f"unknown escape \\{source[end + 1]}", line, column)

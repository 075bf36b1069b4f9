"""Tokenizer for the LBTrust Datalog dialect (shared by all front-ends).

The token stream records, for every token, whether it was *glued* to the
previous token (no intervening whitespace).  Gluing disambiguates three
constructs the paper uses freely:

* qualified predicate names ``message:id`` (glued colons) versus statement
  labels ``m2: message:id(...)`` (colon followed by space),
* Kleene stars ``T*`` inside quoted patterns (glued ``*``) versus
  multiplication ``N * 2``,
* partitioned atoms ``export[me](...)`` (glued bracket) versus list
  indexing, which the dialect does not have.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError

#: Multi-character punctuation, longest first (greedy matching).
_PUNCT = [
    "[|", "|]", "<<", ">>", "<-", "->", ":-", "<=", ">=", "!=",
    "(", ")", "[", "]", "{", "}", "<", ">", "=", "+", "-", "*", "/", "%",
    ",", ";", "!", ".", "@", ":",
]

#: Words with dedicated token kinds.  ``says`` and ``At`` stay IDENT: in the
#: core dialect ``says`` is an ordinary predicate; the Binder and SeNDlog
#: front-ends recognize them contextually.
_KEYWORDS = {"me", "true", "false", "agg"}


@dataclass(frozen=True)
class Token:
    kind: str          # IDENT VAR INT FLOAT STRING HEX PUNCT KEYWORD EOF
    text: str
    line: int
    column: int
    glued: bool        # True if no whitespace separates it from the previous token

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} {self.text!r}@{self.line}:{self.column}>"


def tokenize(source: str) -> list[Token]:
    """Convert source text to a token list, ending with an EOF token."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    length = len(source)
    glued = False

    def error(message: str) -> ParseError:
        return ParseError(message, line, col)

    while pos < length:
        ch = source[pos]

        # Whitespace ------------------------------------------------------
        if ch in " \t\r\n":
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            pos += 1
            glued = False
            continue

        # Comments ---------------------------------------------------------
        if source.startswith("//", pos) or ch == "%":
            while pos < length and source[pos] != "\n":
                pos += 1
            glued = False
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end < 0:
                raise error("unterminated block comment")
            for c in source[pos:end + 2]:
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            pos = end + 2
            glued = False
            continue

        start_line, start_col = line, col

        # Strings -----------------------------------------------------------
        if ch == '"':
            pos += 1
            col += 1
            chars: list[str] = []
            while True:
                if pos >= length:
                    raise error("unterminated string literal")
                c = source[pos]
                if c == "\\":
                    if pos + 1 >= length:
                        raise error("dangling escape in string literal")
                    nxt = source[pos + 1]
                    escape_map = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                    if nxt not in escape_map:
                        raise error(f"unknown escape \\{nxt}")
                    chars.append(escape_map[nxt])
                    pos += 2
                    col += 2
                    continue
                if c == '"':
                    pos += 1
                    col += 1
                    break
                if c == "\n":
                    raise error("newline in string literal")
                chars.append(c)
                pos += 1
                col += 1
            tokens.append(Token("STRING", "".join(chars), start_line, start_col, glued))
            glued = True
            continue

        # Hex bytes ----------------------------------------------------------
        if source.startswith("0x", pos) and pos + 2 < length and source[pos + 2] in "0123456789abcdefABCDEF":
            end = pos + 2
            while end < length and source[end] in "0123456789abcdefABCDEF":
                end += 1
            text = source[pos:end]
            col += end - pos
            pos = end
            tokens.append(Token("HEX", text, start_line, start_col, glued))
            glued = True
            continue

        # Numbers -------------------------------------------------------------
        if ch.isdigit():
            end = pos
            seen_dot = False
            while end < length and (source[end].isdigit() or
                                    (source[end] == "." and not seen_dot
                                     and end + 1 < length and source[end + 1].isdigit())):
                if source[end] == ".":
                    seen_dot = True
                end += 1
            text = source[pos:end]
            kind = "FLOAT" if seen_dot else "INT"
            col += end - pos
            pos = end
            tokens.append(Token(kind, text, start_line, start_col, glued))
            glued = True
            continue

        # Rule references ($r<N>) ----------------------------------------------
        if ch == "$" and source.startswith("$r", pos) \
                and pos + 2 < length and source[pos + 2].isdigit():
            end = pos + 2
            while end < length and source[end].isdigit():
                end += 1
            text = source[pos:end]
            col += end - pos
            pos = end
            tokens.append(Token("REFID", text, start_line, start_col, glued))
            glued = True
            continue

        # Identifiers and variables --------------------------------------------
        if ch.isalpha() or ch == "_":
            end = pos
            while end < length and (source[end].isalnum() or source[end] in "_'"):
                end += 1
            text = source[pos:end]
            col += end - pos
            pos = end
            if text in _KEYWORDS:
                kind = "KEYWORD"
            elif text[0].isupper() or text[0] == "_":
                kind = "VAR"
            else:
                kind = "IDENT"
            tokens.append(Token(kind, text, start_line, start_col, glued))
            glued = True
            continue

        # Punctuation ------------------------------------------------------------
        for punct in _PUNCT:
            if source.startswith(punct, pos):
                pos += len(punct)
                col += len(punct)
                tokens.append(Token("PUNCT", punct, start_line, start_col, glued))
                glued = True
                break
        else:
            raise error(f"unexpected character {ch!r}")

    tokens.append(Token("EOF", "", line, col, False))
    return tokens

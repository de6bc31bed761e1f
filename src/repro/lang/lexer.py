"""Lexer for the C dialect with the ``vpfloat`` extension.

Tokenizes the C subset the paper's examples use (Listings 2-4): scalar
types, pointers, arrays, control flow, function definitions, plus:

- the ``vpfloat`` keyword and format names (``mpfr``, ``unum``, ...);
- FP literal suffixes ``v`` (unum literal) and ``y`` (mpfr literal),
  paper §III-A4;
- ``#pragma omp ...`` lines surfaced as PRAGMA tokens for OpenMP support.

The scanner is one compiled master regex, one named group per token kind
(plus comments, the two unterminated forms and a catch-all error group),
with the whitespace before a token folded into its match.  Each match
yields at most one token; the line and column come from the newlines the
match spans.  Digits and identifiers use Unicode's classes: a decimal
digit (``\\d``) starts a number, any other word character (``\\w``) an
identifier.  Diagnostics carry the position of the offending token: an
unterminated block comment or string is reported at its opening
characters.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional


class SourceError(Exception):
    """A compile-time diagnostic with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT_LIT = "integer literal"
    FLOAT_LIT = "floating literal"
    STRING_LIT = "string literal"
    PUNCT = "punctuation"
    PRAGMA = "pragma"
    EOF = "end of file"


KEYWORDS = frozenset({
    "void", "int", "unsigned", "long", "char", "float", "double",
    "vpfloat", "for", "while", "do", "if", "else", "return", "break",
    "continue", "sizeof", "const", "static", "extern", "struct",
})

#: Format names recognized inside vpfloat<...>; parsed as identifiers but
#: listed here for diagnostics.
VPFLOAT_FORMATS = ("mpfr", "unum", "posit", "bfloat16")

# Longest-match punctuation table.
_PUNCTUATION = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=",
    "/=", "%=", "&=", "|=", "^=", "->", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


@dataclass
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int
    #: For numeric literals: the suffix letter ('f', 'v', 'y', 'u', 'l', '').
    suffix: str = ""

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}@{self.line}:{self.column})"


#: Whitespace before a token: it is part of the token's match.  No
#: alternative below starts with whitespace, so a match never backtracks
#: into it, and only trailing whitespace fails to match.
_SPACE = r"[ \t\r\n]*"


#: The master regex: one named group per token or trivia kind, tried in
#: order.  Order matters where kinds overlap: comments before ``/``,
#: ``.5`` before ``.``, the unterminated forms after the closed ones, and
#: ``error`` (any one non-blank character) last, so every token position
#: matches.  Digits are ``\d`` (Unicode decimal digits); an identifier
#: starts with a word character that is not one and runs over ``\w``.
_TOKEN = re.compile(_SPACE + "(?:" + "|".join(
    f"(?P<{name}>{body})" for name, body in (
        ("ident", r"[^\W\d]\w*"),
        ("comment", r"//[^\n]*|/\*[\s\S]*?\*/"),
        ("open_comment", r"/\*"),
        ("number",
         r"(?P<digits>0[xX][0-9a-fA-F]*"
         r"|(?:\d+(?:\.(?!\.)\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
         r"(?P<suffix>[fvyulFVYUL]?)"),
        ("punct", "|".join(map(re.escape, _PUNCTUATION))),
        ("string", r'"(?P<chars>[^"\\]*(?:\\[\s\S][^"\\]*)*)"'),
        ("open_string", '"'),
        ("directive", r"\#[^\n]*"),
        ("error", r"[^ \t\r\n]"),
    )) + ")")


#: Diagnostics of the master regex's error groups, at the match start.
_ERRORS = {
    "error": "unexpected character {!r}",
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
}

_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", '"': '"'}
_ESCAPE = re.compile(r"\\([\s\S])")


def _unescape(match: "re.Match[str]") -> str:
    """A string escape: ``\\n``, ``\\t``, ``\\0``, or the character itself."""
    return _ESCAPES.get(match.group(1), match.group(1))


class Lexer:
    """Tokenizer with // and /* */ comment support.

    Each token is one match of a master regex at the current position;
    the line and column move by the newlines in the matched text.
    ``pos``, ``line`` and ``column`` are where the next token's scan
    starts.
    """

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1
        self._stream: Optional[Iterator[Token]] = None

    def error(self, message: str) -> SourceError:
        return SourceError(message, self.line, self.column)

    # ------------------------------------------------------------ #

    def tokens(self) -> List[Token]:
        stream = self._tokens()
        result = [next(stream)]
        while result[-1].kind is not TokenKind.EOF:
            result.append(next(stream))
        return result

    def next_token(self) -> Token:
        return next(self._tokens())

    def _tokens(self) -> Iterator[Token]:
        if self._stream is None:
            self._stream = self._scan()
        return self._stream

    def _scan(self) -> Iterator[Token]:
        """Tokens from ``pos`` on; at the end of the input, EOF forever."""
        source, match = self.source, _TOKEN.match
        pos, line = self.pos, self.line
        line_start = pos - self.column + 1  # index of column 1
        ident, keyword, punct = TokenKind.IDENT, TokenKind.KEYWORD, \
            TokenKind.PUNCT
        while True:
            found = match(source, pos)
            # Whitespace before the match (or before the end of input)
            # moves the line; the token's column is then its distance
            # from the line's first character.
            start = found.start(found.lastgroup) if found else len(source)
            newlines = source.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, start) + 1
            column = start - line_start + 1
            if found is None:
                pos = start
                self.pos, self.line, self.column = pos, line, column
                yield Token(TokenKind.EOF, "", line, column)
                continue
            kind, text = found.lastgroup, found.group(found.lastgroup)
            if kind in _ERRORS:
                self.pos, self.line, self.column = start, line, column
                raise self.error(_ERRORS[kind].format(text))
            pos = found.end()
            if kind == "ident":
                token = Token(keyword if text in KEYWORDS else ident, text,
                              line, column)
            elif kind == "punct":
                token = Token(punct, text, line, column)
            elif kind == "number":
                digits, suffix = found.group("digits", "suffix")
                suffix = suffix.lower()
                is_float = suffix in ("f", "v", "y") or (
                    digits[1:2] not in ("x", "X")
                    and ("." in digits or "e" in digits or "E" in digits))
                token = Token(TokenKind.FLOAT_LIT if is_float
                              else TokenKind.INT_LIT, digits, line, column,
                              suffix)
            elif kind == "string":
                token = Token(TokenKind.STRING_LIT,
                              _ESCAPE.sub(_unescape, found.group("chars")),
                              line, column)
            elif kind == "directive":
                directive = text.strip()
                if not directive.startswith("#pragma"):
                    # Other directives (e.g. #include) are ignored: the
                    # dialect has no preprocessor; headers are resolved
                    # by the driver.
                    continue
                token = Token(TokenKind.PRAGMA,
                              directive[len("#pragma"):].strip(),
                              line, column)
            else:
                token = None  # a comment
            if kind == "string" or kind == "comment":  # may span lines
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = source.rfind("\n", start, pos) + 1
                if token is None:
                    continue
            self.pos, self.line, self.column = pos, line, pos - line_start + 1
            yield token


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: full token stream including the EOF token."""
    return Lexer(source).tokens()

"""Lexer: tokens, literals, suffixes, comments, pragmas."""

import hashlib
from pathlib import Path

import pytest

from repro.lang import SourceError, TokenKind, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestBasics:
    def test_keywords_and_identifiers(self):
        tokens = kinds("int x; vpfloat y; double z2;")
        assert tokens[0] == (TokenKind.KEYWORD, "int")
        assert tokens[1] == (TokenKind.IDENT, "x")
        assert tokens[3] == (TokenKind.KEYWORD, "vpfloat")
        assert tokens[6] == (TokenKind.KEYWORD, "double")
        assert tokens[7] == (TokenKind.IDENT, "z2")

    def test_punctuation_longest_match(self):
        texts = [t.text for t in tokenize("a<<=b>=c&&d++ e->f")[:-1]]
        assert "<<=" in texts
        assert ">=" in texts
        assert "&&" in texts
        assert "++" in texts
        assert "->" in texts

    def test_eof_token(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_positions(self):
        tokens = tokenize("int\n  x;")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3


class TestNumbers:
    def test_int_literals(self):
        tokens = tokenize("42 0x1F 0")
        assert [t.text for t in tokens[:-1]] == ["42", "0x1F", "0"]
        assert all(t.kind is TokenKind.INT_LIT for t in tokens[:-1])

    def test_float_literals(self):
        tokens = tokenize("1.5 .5 2e10 3.25E-2")
        assert all(t.kind is TokenKind.FLOAT_LIT for t in tokens[:-1])

    def test_vpfloat_suffixes(self):
        """The paper's v (unum) and y (mpfr) literal suffixes."""
        tokens = tokenize("1.3v 1.3y 2.0f 7u")
        assert tokens[0].suffix == "v"
        assert tokens[0].kind is TokenKind.FLOAT_LIT
        assert tokens[1].suffix == "y"
        assert tokens[2].suffix == "f"
        assert tokens[3].suffix == "u"
        assert tokens[3].kind is TokenKind.INT_LIT

    def test_integer_with_v_suffix_is_float(self):
        token = tokenize("5v")[0]
        assert token.kind is TokenKind.FLOAT_LIT
        assert token.suffix == "v"

    def test_zero_at_end_of_input(self):
        """Regression: '0' as the last character must not be read as the
        start of a hex literal ('"" in "xX"' is True in Python, which
        once sent the lexer into an infinite loop here)."""
        assert tokenize("0")[0].text == "0"
        assert [t.text for t in tokenize("return 0")[:-1]] == \
            ["return", "0"]

    def test_bare_hex_prefix(self):
        tokens = tokenize("0x")
        assert tokens[0].text == "0x"  # consumed, no digits: still a token

    def test_malformed_hex_diagnosed_by_parser(self):
        from repro.lang import SourceError, parse

        with pytest.raises(SourceError, match="malformed integer"):
            parse("int x = 0x;")


class TestTrivia:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [(TokenKind.IDENT, "a"),
                                            (TokenKind.IDENT, "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [(TokenKind.IDENT, "a"),
                                           (TokenKind.IDENT, "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(SourceError):
            tokenize("a /* never closed")

    def test_pragma_token(self):
        tokens = tokenize("#pragma omp parallel for\nint x;")
        assert tokens[0].kind is TokenKind.PRAGMA
        assert tokens[0].text == "omp parallel for"

    def test_other_directives_skipped(self):
        tokens = tokenize("#include <stdio.h>\nint x;")
        assert tokens[0].is_keyword("int")

    def test_string_literal(self):
        token = tokenize(r'"hi\nthere"')[0]
        assert token.kind is TokenKind.STRING_LIT
        assert token.text == "hi\nthere"

    def test_unexpected_character(self):
        with pytest.raises(SourceError):
            tokenize("int $x;")


# ----------------------------------------------------------------- #
# Pins: the token stream of every bundled source, exact edge cases and
# exact diagnostics.
# ----------------------------------------------------------------- #

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
PIN_FTYPE = "vpfloat<mpfr, 16, 128>"

#: SHA-256 of :func:`stream_digest` over :func:`bundled_sources`, taken
#: with the character-at-a-time lexer the master regex replaced.
BUNDLED_TOKENS_SHA256 = (
    "be9a94707d1cd65457dd86abfc8d382cf64c4dbd740aa826ab0802d70f720b74")


def bundled_sources():
    """``(name, source)`` for every C source the repository ships: the
    PolyBench kernels at one mpfr type, the RAJAPerf kernels with and
    without OpenMP, the sources in ``examples/`` and the paper's
    listings."""
    import runpy

    from repro.workloads.polybench import KERNELS, source_for
    from repro.workloads.rajaperf import RAJA_KERNELS, raja_source
    from test_paper_listings import LISTING2, LISTING3

    sources = [(f"polybench/{k}", source_for(k, PIN_FTYPE))
               for k in sorted(KERNELS)]
    sources += [(f"rajaperf/{k}/omp={omp}", raja_source(k, PIN_FTYPE, omp))
                for k in sorted(RAJA_KERNELS) for omp in (False, True)]
    for path in sorted(EXAMPLES.glob("*.py")):
        names = runpy.run_path(str(path), run_name="lexer_pin")
        sources += [(f"examples/{path.name}/{name}", value)
                    for name, value in sorted(names.items())
                    if name.isupper() and isinstance(value, str)]
    sources += [("listing2", LISTING2), ("listing3", LISTING3)]
    return sources


def stream_digest(sources) -> str:
    digest = hashlib.sha256()
    for name, source in sources:
        for t in tokenize(source):
            digest.update(f"{name}\t{t.kind.name}\t{t.text!r}\t{t.line}\t"
                          f"{t.column}\t{t.suffix}\n".encode())
    return digest.hexdigest()


def full(source):
    return [(t.kind, t.text, t.line, t.column, t.suffix)
            for t in tokenize(source)]


def diagnostic(source):
    with pytest.raises(SourceError) as info:
        tokenize(source)
    error = info.value
    return error.message, error.line, error.column


class TestPins:
    def test_bundled_sources_token_stream(self):
        sources = bundled_sources()
        assert len(sources) == 59
        assert stream_digest(sources) == BUNDLED_TOKENS_SHA256

    def test_crlf(self):
        assert full("int\r\n x;\r\n") == [
            (TokenKind.KEYWORD, "int", 1, 1, ""),
            (TokenKind.IDENT, "x", 2, 2, ""),
            (TokenKind.PUNCT, ";", 2, 3, ""),
            (TokenKind.EOF, "", 3, 1, "")]

    def test_tabs_count_one_column(self):
        assert full("\tint\t\tx;") == [
            (TokenKind.KEYWORD, "int", 1, 2, ""),
            (TokenKind.IDENT, "x", 1, 7, ""),
            (TokenKind.PUNCT, ";", 1, 8, ""),
            (TokenKind.EOF, "", 1, 9, "")]

    def test_multiline_block_comment(self):
        assert full("a /* one\ntwo\n  three */ b") == [
            (TokenKind.IDENT, "a", 1, 1, ""),
            (TokenKind.IDENT, "b", 3, 12, ""),
            (TokenKind.EOF, "", 3, 13, "")]

    def test_pragma_omp(self):
        assert full("  #pragma omp parallel for \nx") == [
            (TokenKind.PRAGMA, "omp parallel for", 1, 3, ""),
            (TokenKind.IDENT, "x", 2, 1, ""),
            (TokenKind.EOF, "", 2, 2, "")]

    def test_int_dot_dot_int(self):
        assert full("1..2") == [
            (TokenKind.INT_LIT, "1", 1, 1, ""),
            (TokenKind.PUNCT, ".", 1, 2, ""),
            (TokenKind.FLOAT_LIT, ".2", 1, 3, ""),
            (TokenKind.EOF, "", 1, 5, "")]

    def test_leading_dot_float_with_exponent_and_suffix(self):
        assert full(".5e-3f") == [
            (TokenKind.FLOAT_LIT, ".5e-3", 1, 1, "f"),
            (TokenKind.EOF, "", 1, 7, "")]

    def test_hex_with_unsigned_suffix(self):
        assert full("0x1Fu") == [
            (TokenKind.INT_LIT, "0x1F", 1, 1, "u"),
            (TokenKind.EOF, "", 1, 6, "")]

    def test_ellipsis_between_identifiers(self):
        assert full("a...b") == [
            (TokenKind.IDENT, "a", 1, 1, ""),
            (TokenKind.PUNCT, "...", 1, 2, ""),
            (TokenKind.IDENT, "b", 1, 5, ""),
            (TokenKind.EOF, "", 1, 6, "")]

    def test_non_ascii_letters_and_digits(self):
        """Digits are Unicode decimal digits (``\\d``); an identifier
        starts with any other word character and runs over ``\\w``.  So
        an accented letter starts an identifier and an Arabic-Indic digit
        a number, while a non-decimal numeric character (``²``, ``½``,
        ``Ⅷ``) is a word character: it starts or continues an
        identifier, never a number."""
        assert full("café = x² + ²l;\n٣٤.5 ½Ⅷ") == [
            (TokenKind.IDENT, "café", 1, 1, ""),
            (TokenKind.PUNCT, "=", 1, 6, ""),
            (TokenKind.IDENT, "x²", 1, 8, ""),
            (TokenKind.PUNCT, "+", 1, 11, ""),
            (TokenKind.IDENT, "²l", 1, 13, ""),
            (TokenKind.PUNCT, ";", 1, 15, ""),
            (TokenKind.FLOAT_LIT, "٣٤.5", 2, 1, ""),
            (TokenKind.IDENT, "½Ⅷ", 2, 6, ""),
            (TokenKind.EOF, "", 2, 8, "")]
        assert full("1²") == [
            (TokenKind.INT_LIT, "1", 1, 1, ""),
            (TokenKind.IDENT, "²", 1, 2, ""),
            (TokenKind.EOF, "", 1, 3, "")]

    def test_unexpected_character_diagnostic(self):
        assert diagnostic("int\n  $x;") == \
            ("unexpected character '$'", 2, 3)

    def test_unterminated_block_comment_at_its_start(self):
        assert diagnostic("a\n  b /* never\nclosed") == \
            ("unterminated block comment", 2, 5)

    def test_unterminated_string_at_its_quote(self):
        assert diagnostic('x = "abc\ndef') == \
            ("unterminated string literal", 1, 5)

    def test_malformed_hex_at_the_literal(self):
        from repro.lang import parse

        with pytest.raises(SourceError) as info:
            parse("int x =\n  0x;")
        assert (info.value.message, info.value.line, info.value.column) \
            == ("malformed integer literal '0x'", 2, 3)

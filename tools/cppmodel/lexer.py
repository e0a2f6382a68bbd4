"""Comment/string stripping and tokenization (shared C++ front end).

One implementation, so every analysis sees the same token stream; see the
package docstring for the contract.
"""

from __future__ import annotations

import re

IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# Identifiers that look like calls but are control flow / operators.  The
# cast keywords matter for template-call recognition: `static_cast<T>(x)`
# must not become a call edge to a function named static_cast.
KEYWORDS = {
    "if",
    "for",
    "while",
    "switch",
    "catch",
    "return",
    "sizeof",
    "alignof",
    "decltype",
    "static_assert",
    "new",
    "delete",
    "throw",
    "case",
    "do",
    "else",
    "co_await",
    "co_return",
    "noexcept",
    "assert",
    "defined",
    "static_cast",
    "dynamic_cast",
    "reinterpret_cast",
    "const_cast",
}

TOKEN_RE = re.compile(
    r"""
    (?P<id>[A-Za-z_]\w*)
  | (?P<num>(?:0[xX][0-9a-fA-F'.pP+\-]+|\d[\w'.]*(?:[eEpP][+\-]?\d+)?))
  | (?P<punct>->|::|<<=|>>=|<=>|\+\+|--|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|\.\.\.|.)
    """,
    re.VERBOSE,
)


def strip_comments_and_strings(text: str) -> str:
    """Replaces comment and string/char-literal bodies with spaces, keeping
    newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(
                "".join("\n" if ch == "\n" else " " for ch in text[i:j])
            )
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    j += 1
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 2) + quote)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(code: str) -> list[tuple[str, int]]:
    """(token text, 1-based line) over comment/string-stripped code."""
    tokens = []
    line = 1
    pos = 0
    for match in TOKEN_RE.finditer(code):
        line += code.count("\n", pos, match.start())
        pos = match.start()
        text = match.group(0)
        if not text.strip():
            continue  # The catch-all punct branch matches whitespace too.
        tokens.append((text, line))
    return tokens

#!/usr/bin/env python3
"""g80211_ast — AST-grade contract analyzer for the 802.11 simulator.

The regex lint (tools/lint/g80211_lint.py) is the fast line-level
pre-check; this tool is the authoritative structural layer. It parses
every translation unit named by the build's compile_commands.json (plus
the headers under the scanned roots) into a lightweight C++ AST — scopes,
classes and their members, function definitions with their local/param
types, lambda expressions with their capture lists, call expressions,
loop headers — and proves five project contracts that line regexes
structurally cannot see:

  callback-capture      a lambda handed to Scheduler::at/after, a Timer,
                        or ThreadPool::submit/submit_to must not capture
                        stack locals by reference ([&], [&x]) or by raw
                        pointer ([p = &x]). The callback is copied into
                        the scheduler's InplaceFunction slab (or the
                        pool's queue) and outlives the calling frame, so
                        such captures dangle. `this` and by-value
                        captures are fine.
  hot-path-alloc        call-graph reachability from every G80211_HOT
                        root (src/sim/hot.h): `new`, make_unique/shared,
                        malloc, and allocating container methods
                        (push_back, insert, resize, map operator[], ...)
                        are banned anywhere reachable. PacketArena /
                        make_packet are exempt by design; a function may
                        excuse itself with G80211_ALLOC_OK("why").
  nondet-unordered-iter iteration over std::unordered_* in any form the
                        AST can see — iterator for/while loops,
                        range-for (including via member/param types the
                        regex cannot resolve), and iterator-pair calls
                        such as std::accumulate(m.begin(), m.end(), ..).
                        Bucket order is implementation-defined, so any
                        simulation-visible state it feeds breaks the
                        bit-identity contracts.
  nondet-pointer-key    an ordered associative container keyed on a raw
                        pointer (std::set<T*>, std::map<T*, V>):
                        iteration order is address order, which varies
                        run to run and across shard counts.
  shard-isolation       in the sharded engine sources
                        (src/scenario/sharded.*): no mutable
                        namespace-scope or function-static state (it
                        would be shared by every shard's Sim), and the
                        payload type of every EpochMailbox must carry no
                        pointer/reference members — boundary packets
                        cross shards BY VALUE.
  event-path-throw      a callback fired from the scheduler slab must be
                        noexcept or route failures through G80211_CHECK:
                        a literal `throw` in the callback body, or in
                        any non-noexcept function reachable from it,
                        escapes through EventPool::fire with the slab
                        slot already released. (G80211_CHECK itself is
                        the sanctioned thrower; src/sim/check.h is
                        exempt.)

Frontend: a self-contained structural C++ parser (tokenizer + scope
tracker; no preprocessing, no name mangling). This container ships no
clang frontend, no libclang shared library and no clang Python bindings,
so the builtin frontend is the pinned backend everywhere (local, ctest,
CI); `--frontend` exists as the seam for a libclang adapter and fails
loudly when asked for one that is not installed. The analyzer is driven
by compile_commands.json: a missing or stale database (a .cc on disk
that the build never compiled) is a configuration error (exit 2), never
a silently-shorter scan.

Per-file parse results are cached under <build>/.g80211_ast_cache keyed
on (file content, tool version, compile_commands.json content), so a
gating CI run after a no-op rebuild re-parses nothing.

Suppression: append  // NOLINT(<rule-id>): <reason>  to the offending
line — the same rule-scoped policy as g80211_lint. Exit codes: 0 clean,
1 findings, 2 configuration/usage error.
"""

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

TOOL_VERSION = 4

RULES = [
    "callback-capture",
    "hot-path-alloc",
    "nondet-unordered-iter",
    "nondet-pointer-key",
    "shard-isolation",
    "event-path-throw",
]

NOLINT_RE = re.compile(r"NOLINT\(([^)]*)\)")
NOLINT_NEXT_RE = re.compile(r"NOLINTNEXTLINE\(([^)]*)\)")

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
    "class", "const", "consteval", "constexpr", "constinit", "continue",
    "co_await", "co_return", "co_yield", "decltype", "default", "delete",
    "do", "double", "else", "enum", "explicit", "extern", "false", "final",
    "float", "for", "friend", "goto", "if", "inline", "int", "long",
    "mutable", "namespace", "new", "noexcept", "nullptr", "operator",
    "override", "private", "protected", "public", "register", "return",
    "short", "signed", "sizeof", "static", "struct", "switch", "template",
    "this", "throw", "true", "try", "typedef", "typeid", "typename",
    "union", "unsigned", "using", "virtual", "void", "volatile", "while",
}

# Callback registrars whose callable argument is stored beyond the frame:
# method name -> class marker the receiver's type must contain (falling
# back to a receiver-name heuristic when the type cannot be resolved).
CB_METHODS = {
    "at": ("Scheduler", ("sched", "scheduler")),
    "after": ("Scheduler", ("sched", "scheduler")),
    "submit": ("ThreadPool", ("pool",)),
    "submit_to": ("ThreadPool", ("pool",)),
}

ALLOC_FREE_FNS = {"make_unique", "make_shared", "malloc", "calloc",
                  "realloc", "strdup", "aligned_alloc"}
ALLOC_METHODS = {"push_back", "emplace_back", "emplace", "emplace_front",
                 "push_front", "insert", "insert_or_assign", "try_emplace",
                 "resize", "reserve", "assign", "append", "push"}
CONTAINER_MARKERS = ("vector", "deque", "string", "map", "set", "list",
                     "function", "queue", "optional")
ITER_PAIR_FNS = {"accumulate", "reduce", "for_each", "transform", "copy",
                 "copy_if", "partial_sum", "inner_product", "all_of",
                 "any_of", "none_of", "count_if", "find_if"}
# Accessor methods whose return type the parser cannot see but the rules
# need: receiver spelled `x.scheduler().at(...)`.
RECEIVER_HINTS = {"scheduler": "Scheduler&", "arena": "PacketArena&",
                  "error_model": "ErrorModel&"}

TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|\.?\d(?:[\w.]|[eEpP][+-])*"
    r"|::|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^!=<>]="
    r"|[{}()\[\];,.?:~^%!<>=&|*/+-]"
)


# ---------------------------------------------------------------------------
# Source preparation: comment/string blanking (NOLINT collected first).

def blank_comments(text):
    """Blank comments and string/char contents, preserving line structure.

    Handles raw strings (R"delim(...)delim"). Returns the blanked text.
    """
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    raw_end = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"' and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    raw_end = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append('R"' + " " * (len(m.group(0)) - 2))
                    i += len(m.group(0))
                    continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "raw":
            if text.startswith(raw_end, i):
                out.append(" " * (len(raw_end) - 1) + '"')
                i += len(raw_end)
                state = None
                continue
            out.append(c if c == "\n" else " ")
        else:  # string/char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def blank_preprocessor(text):
    """Blank preprocessor directives (incl. backslash continuations): the
    structural parser does not preprocess, so directive tokens must not
    leak into the scope walker. NOLINT comments were collected from the
    raw text already; macro names used in code (G80211_HOT, G80211_CHECK)
    are recognized as plain tokens."""
    out = []
    cont = False
    for line in text.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append("")
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


def tokenize(blanked):
    """-> list of (text, line). Strings were blanked to empty literals."""
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(blanked):
        line += blanked.count("\n", pos, m.start())
        pos = m.start()
        toks.append((m.group(0), line))
    return toks


def match_brackets(toks):
    """Match () {} [] in one pass -> dict open_index -> close_index."""
    match = {}
    stack = []
    pairs = {"(": ")", "{": "}", "[": "]"}
    closers = {")": "(", "}": "{", "]": "["}
    for i, (t, _) in enumerate(toks):
        if t in pairs:
            stack.append((t, i))
        elif t in closers:
            # Tolerate imbalance (macro soup): pop to nearest same-kind open.
            for j in range(len(stack) - 1, -1, -1):
                if stack[j][0] == closers[t]:
                    match[stack[j][1]] = i
                    del stack[j:]
                    break
    return match


# ---------------------------------------------------------------------------
# Structural parse -> FileIndex (plain dicts; JSON-serializable for cache).

def new_function(qname, name, cls, line, file):
    return {
        "qname": qname, "name": name, "cls": cls, "line": line, "file": file,
        "noexcept": False, "hot": False, "alloc_ok": False,
        "params": {}, "locals": {}, "local_lines": {}, "lambda_locals": {},
        "calls": [], "subscripts": [], "news": [], "allocfns": [],
        "throws": [], "rangefors": [], "iterloops": [], "algoiters": [],
        "lambdas": [],
    }


def new_lambda(line, encl):
    return {"line": line, "encl": encl, "captures": [], "noexcept": False,
            "argof": None, "calls": [], "subscripts": [], "news": [],
            "allocfns": [], "throws": [], "rangefors": [], "iterloops": [],
            "algoiters": []}


class Parser:
    """One file -> FileIndex. Heuristic but structural: tracks namespace /
    class / function scopes, member and local declarations with their type
    spellings, lambdas with parsed capture lists, and per-function event
    streams (calls, allocations, throws, loop headers)."""

    def __init__(self, rel, text):
        self.rel = rel
        self.toks = tokenize(blank_preprocessor(blank_comments(text)))
        self.match = match_brackets(self.toks)
        self.index = {
            "version": TOOL_VERSION, "file": rel,
            "functions": [], "classes": {}, "class_defs": [], "globals": [],
            "mailbox_payloads": [], "decl_hot": [], "decl_noexcept": [],
        }
        self.scan_mailboxes()
        self.parse_scope(0, len(self.toks), ns=[], cls=None)

    # -- helpers ------------------------------------------------------------

    def t(self, i):
        return self.toks[i][0] if 0 <= i < len(self.toks) else ""

    def line(self, i):
        return self.toks[i][1] if 0 <= i < len(self.toks) else 0

    def scan_mailboxes(self):
        toks = self.toks
        for i in range(len(toks) - 3):
            if toks[i][0] == "EpochMailbox" and toks[i + 1][0] == "<":
                j = i + 2
                name = None
                while j < len(toks) and toks[j][0] not in (">", ">>", ","):
                    if toks[j][0] not in ("::",) and toks[j][0][0].isalpha():
                        name = toks[j][0]
                    j += 1
                if name:
                    self.index["mailbox_payloads"].append(name)

    def skip_angles(self, i):
        """i at '<' -> index past the matching '>'. Conservative: gives up
        at ';' or '{' (comparison, not template argument list)."""
        depth = 0
        j = i
        while j < len(self.toks):
            t = self.t(j)
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif t in (";", "{"):
                return i + 1
            j += 1
        return i + 1

    # -- declaration scanner (namespace / class scope) ----------------------

    def parse_scope(self, start, end, ns, cls):
        i = start
        decl = []  # (token, index) collected since the last boundary
        while i < end:
            t = self.t(i)
            if t == "namespace":
                name = self.t(i + 1) if self.t(i + 1) != "{" else ""
                j = i + 1
                while j < end and self.t(j) != "{" and self.t(j) != ";":
                    j += 1
                if self.t(j) == "{":
                    close = self.match.get(j, end)
                    self.parse_scope(j + 1, close, ns + [name] if name else ns, cls)
                    i = close + 1
                else:
                    i = j + 1
                decl = []
                continue
            if t == "template":
                j = i + 1
                if self.t(j) == "<":
                    j = self.skip_angles(j)
                i = j
                continue
            if t in ("using", "typedef", "friend", "static_assert", "extern"):
                j = i
                while j < end and self.t(j) != ";":
                    if self.t(j) in ("(", "{", "["):
                        j = self.match.get(j, j) + 1
                        continue
                    j += 1
                i = j + 1
                decl = []
                continue
            if t in ("public", "private", "protected") and self.t(i + 1) == ":":
                i += 2
                decl = []
                continue
            if t == "enum":
                j = i
                while j < end and self.t(j) not in ("{", ";"):
                    j += 1
                if self.t(j) == "{":
                    j = self.match.get(j, end) + 1
                while j < end and self.t(j) != ";":
                    j += 1
                i = j + 1
                decl = []
                continue
            if t in ("class", "struct", "union") and not decl:
                # Distinguish a definition (braces before ';') from a
                # forward declaration / elaborated return type.
                j = i + 1
                name = None
                while j < end and self.t(j) not in ("{", ";", "("):
                    if name is None and re.match(r"[A-Za-z_]\w*$", self.t(j)) \
                            and self.t(j) not in ("final",):
                        name = self.t(j)
                    if self.t(j) == "<":
                        j = self.skip_angles(j)
                        continue
                    j += 1
                if self.t(j) == "{" and name:
                    close = self.match.get(j, end)
                    self.index["class_defs"].append(name)
                    self.parse_scope(j + 1, close, ns, name)
                    i = close + 1
                    # skip trailing `;` or variable names
                    while i < end and self.t(i) != ";":
                        i += 1
                    i += 1
                    decl = []
                    continue
                # fall through: treat as part of a declaration (e.g. return
                # type `struct X f();` — rare) or forward decl
                if self.t(j) == ";":
                    i = j + 1
                    decl = []
                    continue
            if t == "[" and self.t(i + 1) == "[":
                # attribute: skip to ]]
                close = self.match.get(i)
                i = (close + 1) if close is not None else i + 1
                continue
            if t == "(":
                close = self.match.get(i)
                decl.append((t, i))
                if close is None:
                    i += 1
                    continue
                decl.append((")", close))
                i = close + 1
                continue
            if t == "=":
                # variable initializer: skip to ';' at bracket depth 0
                j = i
                while j < end:
                    tj = self.t(j)
                    if tj in ("(", "{", "["):
                        j = self.match.get(j, j) + 1
                        continue
                    if tj == ";":
                        break
                    j += 1
                self.finish_decl(decl, ns, cls, has_init=True)
                decl = []
                i = j + 1
                continue
            if t == "{":
                close = self.match.get(i, end)
                if self.decl_is_function(decl):
                    self.finish_function(decl, i, close, ns, cls)
                else:
                    # brace initializer or stray block; a struct def was
                    # handled above.
                    self.finish_decl(decl, ns, cls, has_init=True)
                decl = []
                i = close + 1
                continue
            if t == ";":
                self.finish_decl(decl, ns, cls, has_init=False)
                decl = []
                i += 1
                continue
            if t == "<" and decl and re.match(r"[A-Za-z_]", decl[-1][0]):
                j = self.skip_angles(i)
                # keep the raw span so member types can be reconstructed
                decl.append(("".join(self.t(k) for k in range(i, j)), i))
                i = j
                continue
            decl.append((t, i))
            i += 1

    def decl_is_function(self, decl):
        """decl tokens end (modulo specifiers / ctor init list) with a
        parenthesized parameter list directly after a name."""
        texts = [d[0] for d in decl]
        if "(" not in texts:
            return False
        # find last top-level "(...)" group start whose preceding token is
        # a name (or operator); everything after its ")" must be specifiers
        # or a ctor init list.
        k = len(texts) - 1
        # strip trailing specifier tokens
        SPEC = {"const", "noexcept", "override", "final", "mutable", "&", "&&",
                "try"}
        while k >= 0 and (texts[k] in SPEC):
            k -= 1
        if k >= 0 and texts[k] == ")":
            return True
        # ctor init list: ...) : member(...), member(...)
        if ")" in texts:
            last_close = len(texts) - 1 - texts[::-1].index(")")
            rest = texts[last_close + 1:]
            if rest and rest[0] == ":":
                return True
            # trailing return type: ) -> Type
            if rest and rest[0] == "->":
                return True
        return False

    def finish_decl(self, decl, ns, cls, has_init):
        """A declaration ending in ';' or an initializer at namespace or
        class scope: a member/global variable or a function declaration."""
        if not decl:
            return
        texts = [d[0] for d in decl]
        line = self.line(decl[0][1])
        if "(" in texts and self.decl_is_function(decl):
            # function declaration (no body): record hot/noexcept markers
            name = self.decl_fn_name(decl)
            if name:
                qname = f"{cls}::{name}" if cls else name
                if "G80211_HOT" in texts:
                    self.index["decl_hot"].append(qname)
                close_positions = [k for k, x in enumerate(texts) if x == ")"]
                if close_positions:
                    after = texts[close_positions[-1]:]
                    if "noexcept" in after:
                        self.index["decl_noexcept"].append(qname)
            return
        # variable: last identifier token is the name, the rest the type
        name = None
        name_pos = None
        for k in range(len(texts) - 1, -1, -1):
            if re.match(r"[A-Za-z_]\w*$", texts[k]) and texts[k] not in KEYWORDS:
                name = texts[k]
                name_pos = k
                break
        if name is None:
            return
        type_str = " ".join(texts[:name_pos])
        if not type_str or texts[0] in ("return", "delete", "throw", "goto"):
            return
        is_const = "const" in texts[:name_pos] or "constexpr" in texts[:name_pos]
        is_static = "static" in texts[:name_pos]
        if cls:
            self.index["classes"].setdefault(cls, {})[name] = [type_str, line]
        else:
            self.index["globals"].append(
                [line, name, type_str, is_const, is_static])

    def decl_fn_name(self, decl):
        texts = [d[0] for d in decl]
        try:
            first_open = texts.index("(")
        except ValueError:
            return None
        k = first_open - 1
        if k >= 0 and texts[k] == "operator":
            return None
        # A::B::name -> name; also skip destructor '~'
        while k >= 0 and texts[k] in ("~",):
            k -= 1
        if k >= 0 and re.match(r"[A-Za-z_]\w*$", texts[k]) \
                and texts[k] not in KEYWORDS:
            return texts[k]
        return None

    def finish_function(self, decl, body_open, body_close, ns, cls):
        texts = [d[0] for d in decl]
        name = self.decl_fn_name(decl)
        if name is None:
            name = "operator"
        # explicit qualification A::name in an out-of-line definition
        try:
            first_open = texts.index("(")
        except ValueError:
            return
        qual = None
        k = first_open - 1
        while k >= 0 and texts[k] in ("~",):
            k -= 1
        if k - 2 >= 0 and texts[k - 1] == "::" and \
                re.match(r"[A-Za-z_]\w*$", texts[k - 2]):
            qual = texts[k - 2]
        owner = cls or qual
        qname = f"{owner}::{name}" if owner else name
        fn = new_function(qname, name, owner, self.line(decl[0][1]), self.rel)
        if "G80211_HOT" in texts:
            fn["hot"] = True
        # params from the parameter list
        open_idx = None
        for tok, idx in decl:
            if tok == "(":
                open_idx = idx
                break
        close_idx = self.match.get(open_idx) if open_idx is not None else None
        if open_idx is not None and close_idx is not None:
            self.parse_params(fn, open_idx + 1, close_idx)
            # specifiers between ')' and the body '{' (includes init list)
            spec = [self.t(j) for j in range(close_idx + 1, body_open)]
            if "noexcept" in spec:
                fn["noexcept"] = True
            # scan ctor init list (lambdas handed to Timer members live here)
            self.scan_body(fn, close_idx + 1, body_open)
        self.scan_body(fn, body_open + 1, body_close)
        self.index["functions"].append(fn)

    def parse_params(self, fn, start, end):
        depth = 0
        item = []
        def flush(item):
            texts = [t for t, _ in item]
            if not texts:
                return
            for k in range(len(texts) - 1, -1, -1):
                if re.match(r"[A-Za-z_]\w*$", texts[k]) \
                        and texts[k] not in KEYWORDS:
                    if k > 0:  # need at least one type token before the name
                        fn["params"][texts[k]] = " ".join(texts[:k])
                    return
        j = start
        while j < end:
            t = self.t(j)
            if t in ("(", "{", "["):
                j = self.match.get(j, j) + 1
                continue
            if t == "<":
                j = self.skip_angles(j)
                item.append(("<>", j))
                continue
            if t == "," and depth == 0:
                flush(item)
                item = []
                j += 1
                continue
            if t == "=":  # default argument: ignore the rest of the item
                while j < end and self.t(j) != ",":
                    if self.t(j) in ("(", "{", "["):
                        j = self.match.get(j, j) + 1
                        continue
                    j += 1
                continue
            item.append((t, j))
            j += 1
        flush(item)

    # -- statement/body scanner --------------------------------------------

    LAMBDA_PREV = {"(", ",", "=", "return", "{", ";", ":", "?", "&&", "||",
                   "!", "+", "-", "*", "<<", ">>", "==", "!=", "<", ">",
                   "co_return", "case", "["}

    def scan_body(self, fn, start, end):
        """Linear scan of a function body (or ctor init list): records
        declarations, calls, allocations, throws, loop headers, lambdas."""
        toks = self.toks
        open_lambdas = []  # (lambda_dict, body_end_index)
        open_calls = []    # (recv, method, close_index)
        stmt_start = start
        i = start

        def sinks():
            return [fn] + [l for l, _ in open_lambdas]

        def event(key, value):
            for s in sinks():
                s[key].append(value)

        while i < end:
            # retire finished calls / lambdas
            while open_calls and i > open_calls[-1][2]:
                open_calls.pop()
            while open_lambdas and i > open_lambdas[-1][1]:
                open_lambdas.pop()
            t = self.t(i)
            ln = self.line(i)

            if t in (";", "{", "}"):
                nxt = i + 1
                # statement boundary: attempt declaration parse on the
                # *next* statement later; parse the one that just ended
                self.try_decl(fn, stmt_start, i, open_lambdas)
                stmt_start = nxt
                i = nxt
                continue

            if t == "for" and self.t(i + 1) == "(":
                close = self.match.get(i + 1, i + 1)
                self.scan_for_header(fn, i + 2, close, event)
                i += 2
                stmt_start = i
                continue
            if t == "while" and self.t(i + 1) == "(":
                close = self.match.get(i + 1, i + 1)
                self.scan_while_header(fn, i + 2, close, event)
                i += 2
                stmt_start = i
                continue

            if t == "throw":
                event("throws", ln)
                i += 1
                continue

            if t == "new":
                # `new (place) T` is placement; `new T` allocates
                if self.t(i + 1) != "(":
                    event("news", [ln, "new " + self.t(i + 1)])
                i += 1
                continue

            if t == "[":
                if self.t(i + 1) == "[":  # attribute
                    i = self.match.get(i, i) + 1
                    continue
                prev = self.t(i - 1) if i > start else ""
                if prev in self.LAMBDA_PREV or i == start or prev == "":
                    lam = self.parse_lambda(fn, i, open_calls)
                    if lam is not None:
                        lam_dict, intro_end, body_end = lam
                        fn["lambdas"].append(lam_dict)
                        open_lambdas.append((lam_dict, body_end))
                        i = intro_end  # continue scanning inside the lambda
                        stmt_start = i
                        continue
                else:
                    # subscript: ident '['
                    if re.match(r"[A-Za-z_]\w*$", prev) and prev not in KEYWORDS:
                        event("subscripts", [ln, prev])
                i += 1
                continue

            # call expression: [recv . | ->] name (  — receiver may be a
            # dotted member chain (t.soa.add), kept as "t.soa" so the
            # analyzer can resolve it member-of-member.
            if re.match(r"[A-Za-z_]\w*$", t) and t not in KEYWORDS \
                    and self.t(i + 1) == "(":
                recv = None
                if self.t(i - 1) in (".", "->"):
                    p = self.t(i - 2)
                    if re.match(r"[A-Za-z_]\w*$", p) and p not in KEYWORDS:
                        chain = [p]
                        k = i - 3
                        while len(chain) < 3 and self.t(k) in (".", "->") \
                                and re.match(r"[A-Za-z_]\w*$", self.t(k - 1)) \
                                and self.t(k - 1) not in KEYWORDS:
                            chain.insert(0, self.t(k - 1))
                            k -= 2
                        recv = ".".join(chain)
                    elif p == ")":
                        # x.accessor().method( — use the accessor name hint
                        # find the '(' matching p? walk back: ... name ( ) .
                        q = i - 3
                        if self.t(q) == "(" and \
                                re.match(r"[A-Za-z_]\w*$", self.t(q - 1)):
                            recv = self.t(q - 1) + "()"
                close = self.match.get(i + 1)
                if close is not None:
                    args = self.simple_idents(i + 2, close)
                    event("calls", [ln, recv, t, args])
                    if t in ITER_PAIR_FNS:
                        var = self.iter_pair_var(i + 2, close)
                        if var:
                            event("algoiters", [ln, var, t])
                    open_calls.append((recv, t, close))
                if t in ALLOC_FREE_FNS:
                    event("allocfns", [ln, t])
                if t == "G80211_ALLOC_OK":
                    fn["alloc_ok"] = True
                i += 1
                continue
            if re.match(r"[A-Za-z_]\w*$", t) and t not in KEYWORDS \
                    and self.t(i + 1) == "<" and t in ALLOC_FREE_FNS:
                event("allocfns", [ln, t])
                i += 1
                continue

            i += 1
        self.try_decl(fn, stmt_start, end, open_lambdas)

    def simple_idents(self, start, end):
        """Bare single-identifier arguments of a call (for named-lambda
        tracking): `f(cb)` -> ['cb']; `f(a + b)` contributes nothing."""
        out = []
        depth = 0
        item = []
        j = start
        while j < end:
            t = self.t(j)
            if t in ("(", "{", "["):
                j = self.match.get(j, j) + 1
                item.append(("()", j))
                continue
            if t == "," and depth == 0:
                if len(item) == 1 and re.match(r"[A-Za-z_]\w*$", item[0][0]):
                    out.append(item[0][0])
                item = []
                j += 1
                continue
            item.append((t, j))
            j += 1
        if len(item) == 1 and re.match(r"[A-Za-z_]\w*$", item[0][0]):
            out.append(item[0][0])
        return out

    def iter_pair_var(self, start, end):
        for j in range(start, end - 2):
            if self.t(j + 1) == "." and self.t(j + 2) in ("begin", "cbegin") \
                    and re.match(r"[A-Za-z_]\w*$", self.t(j)):
                return self.t(j)
        return None

    def scan_for_header(self, fn, start, end, event):
        texts = [self.t(j) for j in range(start, end)]
        ln = self.line(start)
        # range-for: top-level ':' not part of '::'
        depth = 0
        for k, t in enumerate(texts):
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == ":" and depth == 0:
                rest = texts[k + 1:]
                root = next((x for x in rest
                             if re.match(r"[A-Za-z_]\w*$", x)
                             and x not in KEYWORDS), None)
                expr = " ".join(rest)
                event("rangefors", [ln, root or "", expr[:60]])
                return
        # iterator loop: `X = VAR.begin()` or `!= VAR.end()` in the header
        for k in range(len(texts) - 2):
            if texts[k + 1] == "." and texts[k + 2] in \
                    ("begin", "cbegin", "end", "cend") \
                    and re.match(r"[A-Za-z_]\w*$", texts[k]):
                event("iterloops", [ln, texts[k]])
                return
        # also parse `for (auto it = ...; ...)` init declaration
        semi = None
        depth = 0
        for k, t in enumerate(texts):
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == ";" and depth == 0:
                semi = k
                break
        if semi:
            self.try_decl_texts(fn, texts[:semi],
                                self.line(start))

    def scan_while_header(self, fn, start, end, event):
        texts = [self.t(j) for j in range(start, end)]
        for k in range(len(texts) - 2):
            if texts[k + 1] == "." and texts[k + 2] in ("end", "cend") \
                    and re.match(r"[A-Za-z_]\w*$", texts[k]):
                event("iterloops", [self.line(start), texts[k]])
                return

    def try_decl(self, fn, start, end, open_lambdas):
        """Heuristic local-declaration parse of toks[start:end)."""
        texts = []
        j = start
        first_eq = None
        init_start = None
        while j < end:
            t = self.t(j)
            if t == "=" and first_eq is None:
                first_eq = len(texts)
                init_start = j + 1
                texts.append(t)
                j += 1
                continue
            if t in ("(", "{", "["):
                close = self.match.get(j)
                if close is None or close >= end:
                    return
                texts.append("(..)")
                j = close + 1
                continue
            if t == "<" and texts and re.match(r"[A-Za-z_<>:,*&\s]+$",
                                               texts[-1] + " "):
                k = self.skip_angles(j)
                texts.append("".join(self.t(x) for x in range(j, k)))
                j = k
                continue
            texts.append(t)
            j += 1
        if not texts or texts[0] in ("return", "if", "else", "switch", "case",
                                     "delete", "throw", "do", "break",
                                     "continue", "goto", "using", "typedef",
                                     "for", "while", "try", "catch", "new"):
            return
        decl_side = texts[:first_eq] if first_eq is not None else texts
        # pattern: TYPE.. NAME  (>= 2 tokens, name last, all type-ish)
        if len(decl_side) < 2:
            return
        name = decl_side[-1]
        if not re.match(r"[A-Za-z_]\w*$", name) or name in KEYWORDS:
            return
        type_toks = decl_side[:-1]
        if not all(re.match(r"[A-Za-z_]\w*$|::|<|>|\*|&|<.*>$|,", x)
                   for x in type_toks):
            return
        if any(x in ("(..)",) for x in type_toks):
            return
        bad = {"return", "delete", "throw"}
        if type_toks[0] in bad or type_toks[0] in ("this",):
            return
        type_str = " ".join(type_toks)
        fn["locals"][name] = type_str
        fn["local_lines"][name] = self.line(start)
        # named lambda? `auto cb = [..]..`
        if init_start is not None and self.t(init_start) == "[":
            fn["lambda_locals"][name] = len(fn["lambdas"])  # index of NEXT
            # lambda to be parsed — but the lambda was already parsed during
            # the linear scan (it preceded this boundary). Find by line.
            ln = self.line(init_start)
            for k, lam in enumerate(fn["lambdas"]):
                if lam["line"] == ln:
                    fn["lambda_locals"][name] = k
                    break

    def try_decl_texts(self, fn, texts, line):
        if len(texts) < 2:
            return
        name = None
        for k in range(len(texts) - 1, -1, -1):
            if re.match(r"[A-Za-z_]\w*$", texts[k]) and texts[k] not in KEYWORDS:
                name = texts[k]
                break
        if name and k > 0:
            fn["locals"][name] = " ".join(texts[:k])
            fn["local_lines"][name] = line

    def parse_lambda(self, fn, i, open_calls):
        """toks[i] == '[' in lambda-introducer position. Returns
        (lambda_dict, index_after_introducer, body_end_index) or None."""
        close_br = self.match.get(i)
        if close_br is None:
            return None
        lam = new_lambda(self.line(i), fn["qname"])
        # parse captures
        item = []
        j = i + 1
        while j <= close_br:
            t = self.t(j)
            if t in ("(", "{", "["):
                sub = self.match.get(j, j)
                item.append(("(..)", j))
                j = sub + 1
                continue
            if t in (",", "]") or j == close_br:
                self.finish_capture(lam, item)
                item = []
                j += 1
                continue
            item.append((t, j))
            j += 1
        # optional parameter list / specifiers, then body
        j = close_br + 1
        if self.t(j) == "(":
            j = self.match.get(j, j) + 1
        while self.t(j) in ("mutable", "constexpr", "noexcept", "->", "const"):
            if self.t(j) == "noexcept":
                lam["noexcept"] = True
            if self.t(j) == "->":
                j += 1  # skip return type token(s): simple case
                while self.t(j) not in ("{",) and j < len(self.toks):
                    if self.t(j) == "<":
                        j = self.skip_angles(j)
                        continue
                    j += 1
                break
            j += 1
        if self.t(j) != "{":
            return None  # not a lambda after all (array literal etc.)
        body_end = self.match.get(j)
        if body_end is None:
            return None
        # innermost open call containing this lambda = its argument position
        if open_calls:
            recv, method, _ = open_calls[-1]
            lam["argof"] = [recv, method]
        return lam, j + 1, body_end

    def finish_capture(self, lam, item):
        texts = [t for t, _ in item]
        if not texts:
            return
        if texts == ["&"]:
            lam["captures"].append(["defref", "", ""])
            return
        if texts == ["="]:
            lam["captures"].append(["defval", "", ""])
            return
        if texts[0] == "this" or texts[:2] == ["*", "this"]:
            lam["captures"].append(["this", "this", ""])
            return
        if texts[0] == "&":
            name = texts[1] if len(texts) > 1 else ""
            if "=" in texts:
                eq = texts.index("=")
                root = self.capture_root(texts[eq + 1:])
                lam["captures"].append(["initref", name, root])
            else:
                lam["captures"].append(["ref", name, ""])
            return
        name = texts[0]
        if "=" in texts:
            eq = texts.index("=")
            init = texts[eq + 1:]
            if init and init[0] == "&":
                root = self.capture_root(init[1:])
                lam["captures"].append(["addr", name, root])
            else:
                root = self.capture_root(init)
                lam["captures"].append(["initval", name, root])
            return
        lam["captures"].append(["val", name, ""])

    @staticmethod
    def capture_root(texts):
        for t in texts:
            if re.match(r"[A-Za-z_]\w*$", t) and t not in KEYWORDS:
                return t
        return ""


# ---------------------------------------------------------------------------
# Rule evaluation over the merged indexes.

class Findings:
    def __init__(self, nolint):
        self.items = []
        self.nolint = nolint  # {rel: {line: set(ids)}}

    def add(self, rel, line, rule, msg):
        ids = self.nolint.get(rel, {}).get(line, set())
        if rule in ids:
            return
        self.items.append((rel, line, rule, msg))


def type_of(name, fn, classes, file_globals):
    """Resolve a variable name's declared type spelling, innermost first."""
    if name in fn["locals"]:
        return fn["locals"][name]
    if name in fn["params"]:
        return fn["params"][name]
    if fn["cls"] and fn["cls"] in classes and name in classes[fn["cls"]]:
        return classes[fn["cls"]][name][0]
    if name in file_globals:
        return file_globals[name]
    if name.endswith("()"):
        return RECEIVER_HINTS.get(name[:-2], None)
    return None


def norm_type(t):
    return (t or "").replace("std ::", "std::").replace(" ", "")


def is_unordered(t):
    return "unordered_" in norm_type(t)


def is_container(t):
    nt = norm_type(t)
    if "Arena" in nt:
        return False
    return any(m in nt for m in CONTAINER_MARKERS)


def is_map_like(t):
    nt = norm_type(t)
    return re.search(r"\bmap\b|::map<|\bmap<|unordered_map", nt) is not None


def pointer_keyed(t):
    """std::set<T*> / std::map<T*, V> — first template arg is a raw ptr."""
    nt = norm_type(t)
    m = re.search(r"(?:multi)?(?:set|map)<", nt)
    if not m:
        return False
    depth = 1
    arg = []
    for c in nt[m.end():]:
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                break
        elif c == "," and depth == 1:
            break
        arg.append(c)
    return "".join(arg).endswith("*")


class Analyzer:
    def __init__(self, indexes, nolint, root):
        self.indexes = indexes
        self.out = Findings(nolint)
        self.root = root
        # merged views
        self.classes = {}
        self.functions = {}   # qname -> [fn, ...] (overloads merge)
        self.by_name = {}     # unqualified name -> [fn, ...]
        self.file_globals = {}  # rel -> {name: type}
        self.class_files = {}   # class name -> files defining it
        hot_decls = set()
        noexcept_decls = set()
        for idx in indexes:
            for cname, members in idx["classes"].items():
                self.classes.setdefault(cname, {}).update(members)
            for cname in idx["class_defs"]:
                self.class_files.setdefault(cname, set()).add(idx["file"])
            self.file_globals[idx["file"]] = {
                g[1]: g[2] for g in idx["globals"]}
            hot_decls.update(idx["decl_hot"])
            noexcept_decls.update(idx["decl_noexcept"])
        for idx in indexes:
            for fn in idx["functions"]:
                if fn["qname"] in hot_decls:
                    fn["hot"] = True
                if fn["qname"] in noexcept_decls:
                    fn["noexcept"] = True
                self.functions.setdefault(fn["qname"], []).append(fn)
                self.by_name.setdefault(fn["name"], []).append(fn)

    # -- shared helpers -----------------------------------------------------

    def resolve_type(self, name, fn):
        """Resolve a receiver spelling, including dotted member chains
        ('t.soa' -> NeighborTable -> NeighborSoA)."""
        parts = name.split(".") if "." in name and not name.endswith("()") \
            else [name]
        t = type_of(parts[0], fn, self.classes,
                    self.file_globals.get(fn["file"], {}))
        for member in parts[1:]:
            if t is None:
                return None
            t = next((self.classes[c][member][0]
                      for c in self.type_classes(t)
                      if member in self.classes[c]), None)
        return t

    def type_classes(self, t):
        """Project classes named (as whole identifiers) in a type spelling."""
        return [i for i in re.findall(r"[A-Za-z_]\w*", t or "")
                if i in self.classes]

    def visible_from(self, cls, file):
        """False for a class defined only in .cc files other than `file`:
        such a class is local to its translation unit."""
        files = self.class_files.get(cls)
        return not files or file in files or \
            not all(f.endswith((".cc", ".cpp")) for f in files)

    def callees(self, fn, call):
        """Resolve a recorded call to candidate function definitions."""
        _, recv, method, _ = call
        if method in ("G80211_CHECK", "G80211_DCHECK", "G80211_ALLOC_OK"):
            return []
        if recv is not None:
            t = self.resolve_type(recv, fn)
            if t is not None:
                # method on a resolved class type
                for cname in self.type_classes(t):
                    out = self.functions.get(f"{cname}::{method}", [])
                    if out:
                        return out
                return []  # std:: containers etc. — not project functions
            # unresolved receiver: any class defining the method that the
            # caller's file can see
            out = []
            for qname, fns in self.functions.items():
                if qname.endswith(f"::{method}"):
                    out.extend(f for f in fns
                               if self.visible_from(f["cls"], fn["file"]))
            return out
        # unqualified: own class first, then free functions
        if fn["cls"]:
            own = self.functions.get(f'{fn["cls"]}::{method}', [])
            if own:
                return own
        return self.functions.get(method, [])

    def all_events(self, fn, key):
        """fn's own events only (lambda events were mirrored in)."""
        return fn[key]

    # -- rule: callback-capture + event-path-throw roots --------------------

    def is_cb_call(self, fn, recv, method):
        if method in CB_METHODS:
            marker, name_hints = CB_METHODS[method]
            t = self.resolve_type(recv, fn) if recv else None
            if t is not None:
                return marker in norm_type(t)
            if recv is None:
                return False
            base = recv.rstrip("_").removesuffix("()")
            return any(h in base for h in name_hints)
        # Timer member/local construction: `timer_(sched, [this]{..})` in a
        # ctor init list parses as a call with method == the member name.
        if recv is None and method:
            t = self.resolve_type(method, fn)
            if t is not None and "Timer" in norm_type(t):
                return True
        # Timer local declaration `Timer t(sched, [..]{..})` parses as a
        # call with method 't'? No — as `Timer` then 't' '(' — method 't',
        # handled above once the local's type is recorded; also accept the
        # direct `Timer(...)` spelling.
        return method == "Timer"

    def is_slab_cb_call(self, fn, recv, method):
        """Callback registrars whose callable fires IN the event slab
        (Scheduler::at/after, Timer). ThreadPool tasks are excluded: the
        pool captures task exceptions and rethrows them at wait(), so a
        throwing task is contained, not a slab escape."""
        if method in ("submit", "submit_to"):
            return False
        return self.is_cb_call(fn, recv, method)

    def check_callbacks(self):
        for fns in self.functions.values():
            for fn in fns:
                for lam in fn["lambdas"]:
                    argof = lam["argof"]
                    if not argof:
                        continue
                    if self.is_cb_call(fn, argof[0], argof[1]):
                        self.check_lambda_captures(fn, lam)
                # a named lambda passed to a cb call by identifier
                for call in fn["calls"]:
                    ln, recv, method, args = call
                    if not args or not self.is_cb_call(fn, recv, method):
                        continue
                    for a in args:
                        k = fn["lambda_locals"].get(a)
                        if k is not None and k < len(fn["lambdas"]):
                            self.check_lambda_captures(
                                fn, fn["lambdas"][k], at_line=ln)

    def check_lambda_captures(self, fn, lam, at_line=None):
        line = at_line or lam["line"]
        for kind, name, root in lam["captures"]:
            if kind == "defref":
                self.out.add(fn["file"], line, "callback-capture",
                             f"lambda passed to a slab callback registrar in "
                             f"'{fn['qname']}' captures by reference ([&]): "
                             "the callback outlives this frame "
                             "(InplaceFunction slab); capture by value or "
                             "capture `this`")
            elif kind == "ref":
                self.out.add(fn["file"], line, "callback-capture",
                             f"lambda in '{fn['qname']}' captures local "
                             f"'{name}' by reference; the scheduled callback "
                             "outlives the frame — capture by value")
            elif kind == "addr":
                if root and (root in fn["locals"] or root in fn["params"]):
                    self.out.add(fn["file"], line, "callback-capture",
                                 f"lambda in '{fn['qname']}' captures "
                                 f"'{name} = &{root}', a raw pointer to a "
                                 "stack local; the callback outlives the "
                                 "frame — copy the value instead")

    # -- rule: hot-path-alloc ----------------------------------------------

    def reachable_from_hot(self):
        roots = [fn for fns in self.functions.values() for fn in fns
                 if fn["hot"]]
        seen = {}
        work = [(fn, None) for fn in roots]
        for fn, _ in work:
            seen[id(fn)] = (fn, None)
        order = []
        while work:
            fn, parent = work.pop()
            order.append(fn)
            for call in fn["calls"]:
                for callee in self.callees(fn, call):
                    if id(callee) not in seen:
                        seen[id(callee)] = (callee, fn)
                        work.append((callee, fn))
        parents = {id(fn): p for fn, p in seen.values()}
        return order, parents

    def chain(self, fn, parents):
        names = [fn["qname"]]
        cur = parents.get(id(fn))
        depth = 0
        while cur is not None and depth < 6:
            names.append(cur["qname"])
            cur = parents.get(id(cur))
            depth += 1
        return " <- ".join(names)

    def check_hot_alloc(self):
        order, parents = self.reachable_from_hot()
        for fn in order:
            if fn["alloc_ok"]:
                continue
            where = self.chain(fn, parents)
            for ln, what in fn["news"]:
                self.out.add(fn["file"], ln, "hot-path-alloc",
                             f"'{what}' on the hot path ({where}); use an "
                             "arena/pool or G80211_ALLOC_OK with a reason")
            for ln, name in fn["allocfns"]:
                self.out.add(fn["file"], ln, "hot-path-alloc",
                             f"allocating call '{name}' on the hot path "
                             f"({where})")
            for ln, recv, method, _ in fn["calls"]:
                if method not in ALLOC_METHODS or recv is None:
                    continue
                t = self.resolve_type(recv, fn)
                if t is None or not is_container(t):
                    continue
                self.out.add(fn["file"], ln, "hot-path-alloc",
                             f"'{recv}.{method}()' may allocate "
                             f"({norm_type(t)[:40]}) on the hot path "
                             f"({where}); reserve/pool it or justify with "
                             "G80211_ALLOC_OK / NOLINT")
            for ln, recv in fn["subscripts"]:
                t = self.resolve_type(recv, fn)
                if t is None or not is_map_like(t):
                    continue
                self.out.add(fn["file"], ln, "hot-path-alloc",
                             f"'{recv}[...]' on a map allocates on first "
                             f"contact ({where}); use find() or justify "
                             "with G80211_ALLOC_OK / NOLINT")

    # -- rule: determinism --------------------------------------------------

    def check_determinism(self):
        for fns in self.functions.values():
            for fn in fns:
                for ln, root, expr in fn["rangefors"]:
                    t = self.resolve_type(root, fn)
                    if (t and is_unordered(t)) or "unordered_" in expr:
                        self.out.add(fn["file"], ln, "nondet-unordered-iter",
                                     f"range-for over unordered container "
                                     f"'{root}' in '{fn['qname']}': bucket "
                                     "order is implementation-defined")
                for ln, var in fn["iterloops"]:
                    t = self.resolve_type(var, fn)
                    if t and is_unordered(t):
                        self.out.add(fn["file"], ln, "nondet-unordered-iter",
                                     f"iterator loop over unordered "
                                     f"container '{var}' in '{fn['qname']}'")
                for ln, var, algo in fn["algoiters"]:
                    t = self.resolve_type(var, fn)
                    if t and is_unordered(t):
                        self.out.add(fn["file"], ln, "nondet-unordered-iter",
                                     f"'{algo}' over unordered container "
                                     f"'{var}' iterators in '{fn['qname']}'")
                for name, t in list(fn["locals"].items()):
                    if pointer_keyed(t):
                        self.out.add(fn["file"],
                                     fn["local_lines"].get(name, fn["line"]),
                                     "nondet-pointer-key",
                                     f"'{name}' ({norm_type(t)[:50]}) in "
                                     f"'{fn['qname']}' orders by pointer "
                                     "value — address order varies per run")
        for idx in self.indexes:
            for cname, members in idx["classes"].items():
                for name, (t, ln) in members.items():
                    if pointer_keyed(t):
                        self.out.add(idx["file"], ln, "nondet-pointer-key",
                                     f"member '{cname}::{name}' "
                                     f"({norm_type(t)[:50]}) keys an ordered "
                                     "container on a raw pointer — iteration "
                                     "order is address order")

    # -- rule: shard-isolation ----------------------------------------------

    def check_shard_isolation(self):
        payloads = set()
        sharded = []
        for idx in self.indexes:
            rel = idx["file"].replace("\\", "/")
            if "/sharded" in rel or rel.startswith("sharded"):
                sharded.append(idx)
                payloads.update(idx["mailbox_payloads"])
        for idx in sharded:
            rel = idx["file"]
            for ln, name, t, is_const, is_static in idx["globals"]:
                if is_const:
                    continue
                self.out.add(rel, ln, "shard-isolation",
                             f"mutable namespace-scope state '{name}' in the "
                             "sharded engine is shared by every shard's Sim; "
                             "route cross-shard state through an EpochMailbox")
            for fn in idx["functions"]:
                for name, t in fn["locals"].items():
                    if t.split() and t.split()[0] == "static" \
                            and "const" not in t:
                        self.out.add(rel,
                                     fn["local_lines"].get(name, fn["line"]),
                                     "shard-isolation",
                                     f"function-static '{name}' in "
                                     f"'{fn['qname']}' is shared across "
                                     "shards")
        for idx in sharded:
            for cname, members in idx["classes"].items():
                if cname not in payloads:
                    continue
                for name, (t, ln) in members.items():
                    nt = norm_type(t)
                    if nt.endswith("*") or nt.endswith("&"):
                        self.out.add(idx["file"], ln, "shard-isolation",
                                     f"EpochMailbox payload '{cname}' member "
                                     f"'{name}' ({nt[:40]}) is a pointer/"
                                     "reference: boundary packets must cross "
                                     "shards by value")

    # -- rule: event-path-throw ----------------------------------------------

    def check_event_throws(self):
        # roots: lambdas registered with a slab callback registrar
        visited = set()
        for fns in self.functions.values():
            for fn in fns:
                for lam in fn["lambdas"]:
                    argof = lam["argof"]
                    if not argof or \
                            not self.is_slab_cb_call(fn, argof[0], argof[1]):
                        continue
                    if lam["noexcept"]:
                        continue
                    origin = f'callback at {fn["file"]}:{lam["line"]}'
                    for ln in lam["throws"]:
                        self.flag_throw(fn["file"], ln, origin, direct=True)
                    self.walk_throws(fn, lam["calls"], origin, visited)

    def walk_throws(self, fn, calls, origin, visited):
        work = [(fn, c) for c in calls]
        while work:
            caller, call = work.pop()
            for callee in self.callees(caller, call):
                key = (id(callee), origin)
                if key in visited:
                    continue
                visited.add(key)
                if callee["noexcept"]:
                    continue
                if callee["file"].endswith("sim/check.h"):
                    continue
                for ln in callee["throws"]:
                    self.flag_throw(callee["file"], ln,
                                    f'{origin} via {callee["qname"]}',
                                    direct=False)
                work.extend((callee, c) for c in callee["calls"])

    def flag_throw(self, rel, line, origin, direct):
        what = "throw in a slab callback" if direct else \
            "throw reachable from a slab callback"
        self.out.add(rel, line, "event-path-throw",
                     f"{what} ({origin}): the event path requires noexcept "
                     "callbacks or G80211_CHECK-routed failures "
                     "(src/sim/check.h)")

    def run(self):
        self.check_callbacks()
        self.check_hot_alloc()
        self.check_determinism()
        self.check_shard_isolation()
        self.check_event_throws()
        return self.out


# ---------------------------------------------------------------------------
# Driver: compile_commands, cache, file discovery.

def load_db(build_dir):
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        print(f"g80211_ast: {db_path} not found — configure the build first "
              "(cmake -B build -S . exports it via "
              "CMAKE_EXPORT_COMPILE_COMMANDS)", file=sys.stderr)
        sys.exit(2)
    try:
        raw = db_path.read_bytes()
        db = json.loads(raw)
    except (OSError, json.JSONDecodeError) as e:
        print(f"g80211_ast: cannot read {db_path}: {e}", file=sys.stderr)
        sys.exit(2)
    return db, hashlib.sha1(raw).hexdigest(), db_path


def db_files(db, db_path):
    out = set()
    for entry in db:
        f = Path(entry.get("file", ""))
        if not f.is_absolute():
            d = Path(entry.get("directory", "."))
            if not d.is_absolute():
                d = db_path.parent / d
            f = d / f
        try:
            out.add(f.resolve())
        except OSError:
            pass
    return out


def check_db_fresh(db, db_path, root, scan_dirs):
    """Every on-disk first-party .cc under the scanned src/ roots must be
    known to the build; a stale database silently shrinks the scan."""
    known = db_files(db, db_path)
    missing = []
    for d in scan_dirs:
        base = root / d
        if not base.is_dir():
            continue
        for cc in sorted(base.rglob("*.cc")):
            if cc.resolve() not in known:
                missing.append(cc)
    if missing:
        names = ", ".join(str(m.relative_to(root)) for m in missing[:5])
        print(f"g80211_ast: compile_commands.json is stale — {len(missing)} "
              f"translation unit(s) on disk are not in the database "
              f"({names}{', ...' if len(missing) > 5 else ''}). Re-run the "
              "cmake configure step, then retry.", file=sys.stderr)
        sys.exit(2)


def collect_nolint(rel, text):
    """{line: {rule-id}} — same-line NOLINT(id), plus NOLINTNEXTLINE(id)
    which suppresses the next *code* line: intervening blank and pure
    comment lines are skipped, so a multi-line justification comment
    reads naturally above the statement it excuses."""
    out = {}
    lines = text.split("\n")
    for i, line in enumerate(lines, 1):
        m = NOLINT_NEXT_RE.search(line)
        if m:
            ids = {s.strip().split(":")[0] for s in m.group(1).split(",")}
            j = i  # 0-based index of the following line
            while j < len(lines) and (not lines[j].strip()
                                      or lines[j].lstrip().startswith("//")):
                j += 1
            out.setdefault(j + 1, set()).update(ids)
            continue
        m = NOLINT_RE.search(line)
        if m:
            ids = {s.strip().split(":")[0] for s in m.group(1).split(",")}
            out.setdefault(i, set()).update(ids)
    return out


def parse_file(rel, path, cache_dir, db_hash):
    text = path.read_text(encoding="utf-8", errors="replace")
    nolint = collect_nolint(rel, text)
    key = None
    if cache_dir is not None:
        h = hashlib.sha1()
        h.update(f"v{TOOL_VERSION}|{db_hash}|".encode())
        h.update(text.encode("utf-8", "replace"))
        key = cache_dir / (h.hexdigest() + ".json")
        if key.is_file():
            try:
                idx = json.loads(key.read_text())
                if idx.get("version") == TOOL_VERSION:
                    idx["file"] = rel  # path may differ between checkouts
                    return idx, nolint
            except (OSError, json.JSONDecodeError):
                pass
    idx = Parser(rel, text).index
    if key is not None:
        try:
            key.write_text(json.dumps(idx))
        except OSError:
            pass
    return idx, nolint


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to scan, relative to --root (default: src)")
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels up)")
    ap.add_argument("-p", "--build-dir", type=Path, default=None,
                    help="directory holding compile_commands.json "
                         "(default: <root>/build; fixtures keep the database "
                         "next to their sources)")
    ap.add_argument("--frontend", choices=["builtin", "libclang"],
                    default="builtin",
                    help="AST frontend. 'builtin' is the pinned structural "
                         "frontend; 'libclang' requires the clang Python "
                         "bindings + libclang shared library and fails "
                         "loudly when they are absent")
    ap.add_argument("--no-cache", action="store_true",
                    help="bypass the per-file AST cache")
    ap.add_argument("--cache-dir", type=Path, default=None,
                    help="cache location (default: <build>/.g80211_ast_cache)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    if args.frontend == "libclang":
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            print("g80211_ast: the libclang frontend needs the clang Python "
                  "bindings (python3-clang) and a libclang shared library; "
                  "neither ships in this container. Use --frontend builtin "
                  "(the pinned default) or install a pinned libclang.",
                  file=sys.stderr)
            return 2
        print("g80211_ast: libclang frontend adapter is not wired up yet; "
              "the builtin frontend is authoritative (see "
              "docs/static-analysis.md)", file=sys.stderr)
        return 2

    root = args.root.resolve()
    build_dir = (args.build_dir or (root / "build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    db, db_hash, db_path = load_db(build_dir)

    targets = args.paths or ["src"]
    files = []
    scan_dirs = []
    for t in targets:
        p = (root / t) if not Path(t).is_absolute() else Path(t)
        if p.is_dir():
            scan_dirs.append(t)
            files.extend(sorted(q for q in p.rglob("*")
                                if q.suffix in (".h", ".cc", ".cpp")))
        elif p.is_file():
            files.append(p)
        else:
            print(f"g80211_ast: no such path: {t}", file=sys.stderr)
            return 2
    check_db_fresh(db, db_path, root, scan_dirs)

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or (build_dir / ".g80211_ast_cache")
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            cache_dir = None

    indexes = []
    nolint = {}
    for f in files:
        try:
            rel = str(f.resolve().relative_to(root))
        except ValueError:
            rel = str(f)
        idx, nl = parse_file(rel, f, cache_dir, db_hash)
        indexes.append(idx)
        nolint[rel] = nl

    out = Analyzer(indexes, nolint, root).run()
    seen = set()
    for path, line, rule, msg in sorted(out.items):
        key = (path, line, rule)  # one report per line+rule, origins vary
        if key in seen:
            continue
        seen.add(key)
        print(f"{path}:{line}: [{rule}] {msg}")
    n = len(seen)
    if n:
        print(f"g80211_ast: {n} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

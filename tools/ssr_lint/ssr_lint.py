#!/usr/bin/env python3
"""ssr_lint — domain-specific static checks for the ssr codebase.

Three rules that generic tooling cannot express:

  hot-path-alloc     Designated hot-path files (the simulator event loop,
                     the wire codec, the dlink send/decode paths) must not
                     introduce heap allocation: no `new`/`malloc`, no
                     `std::function`, no growing-container calls. This is
                     the compile-time complement of the counting-operator-new
                     gates (the alloc_tests ctest): the gates prove the
                     steady state allocates zero, the lint stops a new
                     allocation from being written in the first place.
                     Deliberate cold-path or amortized allocations carry an
                     `ssr-lint: allow(hot-path-alloc)` annotation naming the
                     justification, so every allocation in a hot file is
                     explicitly accounted for.

  unchecked-decode   Every function that constructs a `wire::Reader` over a
                     raw byte buffer must consult `.ok()` before its result
                     escapes. Sub-decoders taking `wire::Reader&` are exempt
                     by contract (the top-level decoder checks once), but a
                     top-level decode that never looks at ok() is a bug
                     waiting for a corrupted datagram.

  memo-invalidate    Version-memoized derived views (RecSA's no_reco() /
                     chs_config()) are only correct if every mutation of the
                     underlying state bumps the version. Any function that
                     mutates a guarded field must also mention the
                     invalidation hook (or route the write through an
                     accessor that does).

Zero dependencies beyond the Python standard library; config lives in
ssr_lint.json next to this script (overridable with --config, which the
fixture tests use).

Exit status: 0 clean, 1 violations found, 2 bad invocation/config.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import sys

SUPPRESS_RE = re.compile(r"ssr-lint:\s*allow\(([\w\-, ]+)\)")

ALL_RULES = ("hot-path-alloc", "unchecked-decode", "memo-invalidate")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# C++-light lexing: blank out comments and string/char literals while keeping
# the byte offsets (and therefore line numbers) of everything else intact.
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text):
    out = list(text)
    i, n = 0, len(text)
    CODE, LINE_C, BLOCK_C, STR, CHAR = range(5)
    state = CODE
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE_C
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_C
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = STR
                i += 1
                continue
            if c == "'":
                state = CHAR
                i += 1
                continue
            i += 1
        elif state == LINE_C:
            if c == "\n":
                state = CODE
            elif c != "\t":
                out[i] = " "
            i += 1
        elif state == BLOCK_C:
            if c == "*" and nxt == "/":
                state = CODE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c not in "\n\t":
                out[i] = " "
            i += 1
        else:  # STR or CHAR
            quote = '"' if state == STR else "'"
            if c == "\\" and i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = CODE
            elif c != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


def line_starts(text):
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def line_of(starts, idx):
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= idx:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1  # 1-indexed


# ---------------------------------------------------------------------------
# Suppression annotations
# ---------------------------------------------------------------------------

def collect_suppressions(raw_lines):
    """Maps 1-indexed line numbers to the set of rules allowed there.

    An annotation on a line with code applies to that line; an annotation on
    a comment-only line applies to the next line with code.
    """
    allowed = {}
    pending = set()
    for lineno, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        rules = set()
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            unknown = rules - set(ALL_RULES)
            if unknown:
                raise SystemExit(
                    f"error: line {lineno}: unknown ssr-lint rule(s) "
                    f"{sorted(unknown)} in allow() annotation")
        code = line.split("//", 1)[0].strip()
        if rules and not code:
            pending |= rules  # comment-only line: applies to the next code line
            continue
        here = set(rules)
        if code and pending:
            here |= pending
            pending = set()
        if here:
            allowed[lineno] = allowed.get(lineno, set()) | here
    return allowed


# ---------------------------------------------------------------------------
# Function segmentation (brace matching over the cleaned text)
# ---------------------------------------------------------------------------

_FUNC_TAIL = re.compile(
    r"\)\s*(?:const|noexcept|override|final|mutable|->\s*[\w:<>,&*\s]+)*\s*$")
_CTOR_INIT_TAIL = re.compile(r"\)\s*:\s*[^;{}]*$", re.S)
_NAMESPACE_TAIL = re.compile(r"namespace\s*[\w:]*\s*$")
_TYPE_TAIL = re.compile(r"\b(?:struct|class|union|enum)\b[^;{}()]*$", re.S)
_NAME_BEFORE_PAREN = re.compile(r"([\w~][\w:~]*)\s*\($")


def _function_name(clean, open_idx):
    """Best-effort name of the function whose ')' precedes clean[open_idx]."""
    tail = clean[max(0, open_idx - 600):open_idx].rstrip()
    # Strip a constructor initializer list: everything after ') :'.
    m = _CTOR_INIT_TAIL.search(tail)
    if m:
        tail = tail[:m.start() + 1]
    # Walk back over the parameter list to its opening paren.
    depth = 0
    i = len(tail) - 1
    while i >= 0:
        if tail[i] == ")":
            depth += 1
        elif tail[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i <= 0:
        return "<anon>"
    m = _NAME_BEFORE_PAREN.search(tail[:i + 1])
    return m.group(1) if m else "<anon>"


def find_functions(clean):
    """Yields (name, body_start_idx, body_end_idx) for every function body.

    Namespaces and type bodies are transparent; braces inside a function
    (lambdas included) attribute to the enclosing function.
    """
    functions = []
    stack = []  # entries: (kind, open_idx, name)
    in_function = 0
    for i, c in enumerate(clean):
        if c == "{":
            tail = clean[max(0, i - 600):i].rstrip()
            if in_function:
                kind = "inner"
            elif _NAMESPACE_TAIL.search(tail):
                kind = "namespace"
            elif _TYPE_TAIL.search(tail):
                kind = "type"
            elif _FUNC_TAIL.search(tail) or _CTOR_INIT_TAIL.search(tail):
                kind = "function"
            else:
                kind = "other"
            name = _function_name(clean, i) if kind == "function" else ""
            stack.append((kind, i, name))
            if kind == "function":
                in_function += 1
        elif c == "}":
            if not stack:
                continue  # unbalanced; stay permissive
            kind, open_idx, name = stack.pop()
            if kind == "function":
                in_function -= 1
                functions.append((name, open_idx + 1, i))
    return functions


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

HOT_PATTERNS = [
    (re.compile(r"(?<!operator )\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("), "C allocation"),
    (re.compile(r"\bstd::function\b"), "std::function (type-erased closure)"),
    (re.compile(r"\bstd::make_(?:shared|unique)\b"), "heap-owning factory"),
    (re.compile(
        r"\.(?:push_back|emplace_back|emplace_front|push_front|emplace|"
        r"resize|insert|append|assign)\s*\("),
     "growing-container call"),
]

_READER_CTOR = re.compile(r"\bwire::Reader\s+(\w+)\s*[({]")
_OK_CALL = re.compile(r"\.\s*ok\s*\(")


def check_hot_path(relpath, clean, starts, allowed, out):
    for pat, what in HOT_PATTERNS:
        for m in pat.finditer(clean):
            lineno = line_of(starts, m.start())
            if "hot-path-alloc" in allowed.get(lineno, ()):
                continue
            out.append(Violation(
                relpath, lineno, "hot-path-alloc",
                f"{what} in a designated hot-path file; move it off the hot "
                f"path or justify with an "
                f"'ssr-lint: allow(hot-path-alloc)' annotation"))


def check_unchecked_decode(relpath, clean, starts, allowed, out):
    for name, b0, b1 in find_functions(clean):
        body = clean[b0:b1]
        for m in _READER_CTOR.finditer(body):
            lineno = line_of(starts, b0 + m.start())
            if "unchecked-decode" in allowed.get(lineno, ()):
                continue
            if _OK_CALL.search(body):
                continue
            out.append(Violation(
                relpath, lineno, "unchecked-decode",
                f"function '{name}' constructs wire::Reader "
                f"'{m.group(1)}' but never checks .ok(); a corrupted "
                f"buffer would be consumed as valid data"))


def check_memo_invalidate(relpath, clean, starts, allowed, rule_cfg, out):
    mutator_pats = []
    for field in rule_cfg["fields"]:
        f = re.escape(field)
        mutator_pats.append((field, re.compile(
            rf"\b{f}\s*=(?!=)"              # assignment (not comparison)
            rf"|\b{f}\s*\["                 # map/vector operator[] write
            rf"|\b{f}\.(?:insert|erase|clear|push_back|emplace)\s*\(")))
    invalidate_pats = [re.compile(tok) for tok in rule_cfg["invalidate"]]
    hook_names = ", ".join(rule_cfg["invalidate"])
    for name, b0, b1 in find_functions(clean):
        body = clean[b0:b1]
        if any(p.search(body) for p in invalidate_pats):
            continue
        for field, pat in mutator_pats:
            m = pat.search(body)
            if not m:
                continue
            lineno = line_of(starts, b0 + m.start())
            if "memo-invalidate" in allowed.get(lineno, ()):
                continue
            out.append(Violation(
                relpath, lineno, "memo-invalidate",
                f"function '{name}' mutates memo-guarded state "
                f"'{field}' without invalidating the derived-view cache "
                f"(expected one of: {hook_names})"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def match_any(relpath, globs):
    return any(fnmatch.fnmatch(relpath, g) for g in globs)


def lint_file(root, relpath, cfg):
    path = os.path.join(root, relpath)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    raw_lines = text.splitlines()
    allowed = collect_suppressions(raw_lines)
    clean = strip_comments_and_strings(text)
    starts = line_starts(clean)
    out = []
    if match_any(relpath, cfg["hot_path"]["files"]):
        check_hot_path(relpath, clean, starts, allowed, out)
    if match_any(relpath, cfg["decode"]["files"]):
        check_unchecked_decode(relpath, clean, starts, allowed, out)
    for rule_cfg in cfg.get("memo", []):
        if relpath == rule_cfg["file"] or match_any(relpath, [rule_cfg["file"]]):
            check_memo_invalidate(relpath, clean, starts, allowed, rule_cfg, out)
    return out


def target_files(root, cfg):
    wanted = set()
    globs = set(cfg["hot_path"]["files"]) | set(cfg["decode"]["files"])
    globs |= {m["file"] for m in cfg.get("memo", [])}
    skip_dirs = set(cfg.get("skip_dirs", []))
    for dirpath, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        dirnames[:] = [
            d for d in dirnames
            if not d.startswith(".")
            and os.path.normpath(os.path.join(rel, d)) not in skip_dirs
            and d not in skip_dirs]
        for fn in filenames:
            if not fn.endswith((".cpp", ".hpp", ".cc", ".h")):
                continue
            relpath = os.path.normpath(os.path.join(rel, fn))
            if match_any(relpath, list(globs)):
                wanted.add(relpath)
    return sorted(wanted)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels above this "
                         "script)")
    ap.add_argument("--config", default=None,
                    help="lint config JSON (default: ssr_lint.json next to "
                         "this script)")
    ap.add_argument("--list-files", action="store_true",
                    help="print the files the config selects and exit")
    ap.add_argument("files", nargs="*",
                    help="specific files (relative to --root) instead of the "
                         "configured sweep")
    args = ap.parse_args(argv)

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(script_dir, "..", ".."))
    config_path = args.config or os.path.join(script_dir, "ssr_lint.json")
    try:
        with open(config_path, encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot load config {config_path}: {e}", file=sys.stderr)
        return 2

    files = args.files or target_files(root, cfg)
    if args.list_files:
        print("\n".join(files))
        return 0

    violations = []
    for relpath in files:
        violations.extend(lint_file(root, relpath, cfg))
    for v in violations:
        print(v)
    if violations:
        print(f"ssr_lint: {len(violations)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"ssr_lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

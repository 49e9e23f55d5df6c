#!/usr/bin/env python3
"""Count the settable configuration fields of the simulator.

A settable field is a non-static data member of a `*Config`, `ChipSpec`
or `TilePipeline` struct under src/ (ROADMAP item 2's knob audit). Member
functions, nested types, `static`/`constexpr` values and comments do not
count; `int a = 0, b = 0;` counts as two fields.

    python3 scripts/count_config_fields.py [--src DIR] [--list]

prints "settable config fields: N" (and, with --list, one struct::field a
line). It is a tracked metric, not a gate: it always exits 0.
"""

import argparse
import os
import re
import sys

STRUCT_RE = re.compile(
    r"\bstruct\s+(\w*Config|ChipSpec|TilePipeline)\s*(?::[^{;]*)?\{")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", " ", text)


def body_at(text, open_brace):
    """The text between the brace at `open_brace` and its match."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1:i]
    raise ValueError("unbalanced braces")


def top_level_statements(body):
    """Split a struct body into its depth-0 statements.

    A brace block at depth 0 ends a statement (a member function body)
    unless it is part of a default initializer (`x{}` or `= {...}`),
    which the statement's trailing `;` then ends.
    """
    stmts, cur, depth = [], [], 0
    for ch in body:
        if ch == "{":
            depth += 1
        if depth == 0 and ch == ";":
            stmts.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
        if ch == "}":
            depth -= 1
            if depth == 0:
                head = "".join(cur)
                before = head[:head.index("{")] if "{" in head else head
                # A function body follows a parameter list or a
                # qualifier (`) {`, `) const {`); an initializer does not.
                if re.search(r"\)\s*(const|noexcept|override|\s)*$",
                             before):
                    cur = []
    return [s for s in stmts if s]


def split_declarators(stmt):
    """Split `int a = f(1, 2), b;` at depth-0 commas."""
    parts, cur, depth = [], [], 0
    for ch in stmt:
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        cur.append(ch)
    parts.append("".join(cur))
    return parts


def fields_of(stmt):
    """Data-member names declared by one statement (empty if none)."""
    stmt = re.sub(r"^\s*(public|private|protected)\s*:", "", stmt).strip()
    if not stmt or re.match(
            r"(static|constexpr|using|typedef|friend|enum|struct|class|"
            r"template)\b", stmt):
        return []
    decl = stmt.split("=", 1)[0]
    decl = re.sub(r"\{.*$", "", decl, flags=re.S)
    if "(" in decl:   # a member function declaration
        return []
    names = []
    for part in split_declarators(stmt):
        part = re.sub(r"\{.*$", "", part.split("=", 1)[0], flags=re.S)
        m = re.search(r"(\w+)\s*(\[[^\]]*\])?\s*$", part)
        if m:
            names.append(m.group(1))
    return names


def count(src):
    found = []
    for root, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".hh", ".cc")):
                continue
            path = os.path.join(root, name)
            with open(path) as f:
                text = strip_comments(f.read())
            for m in STRUCT_RE.finditer(text):
                body = body_at(text, m.end() - 1)
                for stmt in top_level_statements(body):
                    for field in fields_of(stmt):
                        found.append((os.path.relpath(path, src),
                                      m.group(1), field))
    return sorted(found)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(root, "src"))
    ap.add_argument("--list", action="store_true",
                    help="print every counted field")
    args = ap.parse_args()
    found = count(args.src)
    if args.list:
        for path, struct, field in found:
            print(f"{path}: {struct}::{field}")
    print(f"settable config fields: {len(found)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

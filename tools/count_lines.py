#!/usr/bin/env python3
"""Count the code lines of C++ sources under one or more directories.

A counted line is a line of a .h, .cc or .cpp file that is not blank
and is not wholly comment: a line holding only a // comment, only
(part of) a /* */ comment, or only both, is not counted. A line with
any code on it counts, whatever comment it also holds. String and
character literals are honoured, so "//" inside a string is code.

Usage:
    tools/count_lines.py src
    tools/count_lines.py src/core src/service

It prints one number: the counted lines of every directory given,
summed. Standard library only.
"""

import argparse
import os
import sys

EXTENSIONS = (".h", ".cc", ".cpp")


def count_file(path):
    """Counted lines of one source file."""
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    counted = 0
    in_block = False
    for line in text.splitlines():
        has_code = False
        i = 0
        n = len(line)
        quote = None
        while i < n:
            c = line[i]
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    break
                in_block = False
                i = end + 2
                continue
            if quote is not None:
                if c == "\\":
                    i += 2
                    continue
                if c == quote:
                    quote = None
                i += 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if not c.isspace():
                has_code = True
                if c in "\"'":
                    quote = c
            i += 1
        if has_code:
            counted += 1
    return counted


def count_tree(root):
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(EXTENSIONS):
                total += count_file(os.path.join(dirpath, name))
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", help="directories to count")
    args = parser.parse_args()
    total = 0
    for root in args.dirs:
        if not os.path.isdir(root):
            print(f"count_lines: not a directory: {root}", file=sys.stderr)
            return 1
        total += count_tree(root)
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())

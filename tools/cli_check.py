#!/usr/bin/env python3
"""Steps of the presto_cli ctest cases (tools/CMakeLists.txt).

    cli_check.py flip DIR
        Flip one bit in the middle of the first seg-*.psf in DIR.
    cli_check.py fails [--names TEXT] CMD [ARG...]
        Run CMD; pass only when it exits 1 with exactly one line on
        stderr: a clean error, not a crash or a sanitizer report. With
        --names, that line must also contain TEXT.
    cli_check.py keeps FILE CMD [ARG...]
        Write a foreign FILE alone in its directory, run CMD; pass only
        when CMD fails cleanly (as for `fails`), FILE still holds the
        same bytes, and CMD created nothing beside it (no JOURNAL).
"""
import glob
import os
import subprocess
import sys

FOREIGN = b"not a segment of this store\n"


def flip(directory):
    segments = sorted(glob.glob(os.path.join(directory, "seg-*.psf")))
    if not segments:
        print(f"no seg-*.psf in {directory}", file=sys.stderr)
        return 1
    with open(segments[0], "r+b") as f:
        data = bytearray(f.read())
        data[len(data) // 2] ^= 0x01
        f.seek(0)
        f.write(data)
    return 0


def fails(cmd, names=None):
    done = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stderr.splitlines()
    if done.returncode != 1 or len(lines) != 1:
        print(f"expected exit 1 and one stderr line, got exit "
              f"{done.returncode} and {len(lines)} line(s)", file=sys.stderr)
        return 1
    if names is not None and names not in lines[0]:
        print(f"expected the error to name {names!r}", file=sys.stderr)
        return 1
    return 0


def keeps(path, cmd):
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    with open(path, "wb") as f:
        f.write(FOREIGN)
    if fails(cmd) != 0:
        return 1
    if not os.path.exists(path):
        print(f"{path} was deleted", file=sys.stderr)
        return 1
    with open(path, "rb") as f:
        if f.read() != FOREIGN:
            print(f"{path} was changed", file=sys.stderr)
            return 1
    created = sorted(set(os.listdir(directory)) - {os.path.basename(path)})
    if created:
        print(f"created {created} in {directory}", file=sys.stderr)
        return 1
    return 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "flip":
        return flip(argv[1])
    if len(argv) >= 3 and argv[0] == "fails" and argv[1] == "--names":
        return fails(argv[3:], names=argv[2])
    if len(argv) >= 2 and argv[0] == "fails":
        return fails(argv[1:])
    if len(argv) >= 3 and argv[0] == "keeps":
        return keeps(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

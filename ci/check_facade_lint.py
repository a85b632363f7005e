#!/usr/bin/env python3
"""Facade lint: application code must not speak the raw rts protocol.

`rts::AsyncClient` (docs/API.md) is the way to program MAGE; the raw
protocol structs (`proto::InvokeRequest`, `proto::LookupRequest`) are an
implementation detail of the facade and the server.  This grep-based
gate fails the build when:

  * anything under examples/ mentions InvokeRequest or LookupRequest
    (examples are the documented programming model — they must go
    through the facade), or
  * a file under src/rts/ outside the protocol/facade allowlist
    constructs or names those structs (new runtime code must route
    invocations through AsyncClient, not hand-roll them; that includes
    the blocking MageClient, which wraps AsyncClient's chase).
    The allowlist is matched by path relative to src/rts/, so the
    distributed-collections layer (src/rts/dist/) can never opt out —
    partitions and rebalancers are applications of the facade, not
    extensions of the protocol.

Usage: python3 ci/check_facade_lint.py [repo-root]
"""
import pathlib
import re
import sys

TOKENS = re.compile(r"\b(InvokeRequest|LookupRequest)\b")

# The protocol definition itself, the server that serves the verbs, and
# the one facade that implements the chase (rts::AsyncClient; the blocking
# MageClient is a wrapper over it and is linted like everything else).
# Everything else in src/rts/ — including all of src/rts/dist/ — is
# "application-side" runtime code and must use the facade.  Entries are
# paths relative to src/rts/ (not basenames) so a nested file can never
# shadow its way in.
RTS_ALLOWLIST = {
    "protocol.hpp",
    "server.hpp",
    "server.cpp",
    "async_client.hpp",
    "async_client.cpp",
}


def scan(path: pathlib.Path) -> list[tuple[int, str]]:
    hits = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if TOKENS.search(line):
            hits.append((lineno, line.strip()))
    return hits


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    failures = []

    for path in sorted((root / "examples").glob("**/*")):
        if path.suffix in (".cpp", ".hpp"):
            for lineno, line in scan(path):
                failures.append(
                    f"{path.relative_to(root)}:{lineno}: raw protocol struct "
                    f"in an example (use rts::AsyncClient): {line}"
                )

    rts_root = root / "src" / "rts"
    for path in sorted(rts_root.glob("**/*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        if path.relative_to(rts_root).as_posix() in RTS_ALLOWLIST:
            continue
        for lineno, line in scan(path):
            failures.append(
                f"{path.relative_to(root)}:{lineno}: raw protocol struct "
                f"outside the facade/protocol allowlist: {line}"
            )

    if failures:
        print("facade lint FAILED:")
        for failure in failures:
            print("  " + failure)
        print(
            "\nRoute invocations through rts::AsyncClient (docs/API.md); "
            "only the protocol/server/async-client files may touch these structs."
        )
        return 1
    print("facade lint OK: no raw protocol structs outside the allowlist")
    return 0


if __name__ == "__main__":
    sys.exit(main())

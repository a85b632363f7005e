#!/usr/bin/env python3
"""Facade lint: one way in for application code and for decoding.

`rts::AsyncClient` (docs/API.md) is the way to program MAGE; the raw
protocol structs (`proto::InvokeRequest`, `proto::LookupRequest`,
`proto::MoveRequest`, `proto::TransferRequest`) are an implementation
detail of the facade and the server.  This grep-based gate fails the
build when:

  * anything under examples/ mentions one of those structs (examples are
    the documented programming model — they must go through the
    facade), or
  * a file under src/rts/ outside the protocol/facade allowlist
    constructs or names those structs (new runtime code must route
    invocations through AsyncClient, not hand-roll them; that includes
    the blocking MageClient, which wraps AsyncClient's chase).  The two
    migration structs keep weak migration in one place: a move is
    `MageServer::migrate` (the server sends the transfer) reached through
    AsyncClient's move chase or MageClient::transfer_out, never a second,
    hand-built transfer.
    The allowlist is matched by path relative to src/rts/, so the
    distributed-collections layer (src/rts/dist/) can never opt out —
    partitions and rebalancers are applications of the facade, not
    extensions of the protocol; or
  * a C++ file names `ChainReader` anywhere but under bench/e2e/ and on
    the alias line in src/serial/chain.hpp.  `serial::Reader` reads every
    byte stream, flat or chained; the old name is kept only because
    bench/e2e still spells it, so it must gain no new caller.

Usage: python3 ci/check_facade_lint.py [repo-root]
"""
import pathlib
import re
import sys

TOKENS = re.compile(
    r"\b(InvokeRequest|LookupRequest|MoveRequest|TransferRequest)\b"
)

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


# The one line allowed to name the chain reader's old name.
ALIAS_TOKEN = re.compile(r"\bChainReader\b")
ALIAS_FILE = "src/serial/chain.hpp"
ALIAS_LINE = "using ChainReader = Reader;"
ALIAS_DIRS = ("src", "tests", "bench", "examples")
ALIAS_EXEMPT = "bench/e2e/"


def scan(path: pathlib.Path, tokens=TOKENS) -> list[tuple[int, str]]:
    hits = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if tokens.search(line):
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

    for top in ALIAS_DIRS:
        for path in sorted((root / top).glob("**/*")):
            rel = path.relative_to(root).as_posix()
            if path.suffix not in (".cpp", ".hpp"):
                continue
            if rel.startswith(ALIAS_EXEMPT):
                continue
            for lineno, line in scan(path, ALIAS_TOKEN):
                if rel == ALIAS_FILE and line == ALIAS_LINE:
                    continue
                failures.append(
                    f"{rel}:{lineno}: ChainReader outside bench/e2e and its "
                    f"alias line (say serial::Reader): {line}"
                )

    if failures:
        print("facade lint FAILED:")
        for failure in failures:
            print("  " + failure)
        print(
            "\nRoute invocations through rts::AsyncClient (docs/API.md); "
            "only the protocol/server/async-client files may touch these structs; "
            "read every byte stream with serial::Reader."
        )
        return 1
    print(
        "facade lint OK: no raw protocol structs outside the allowlist, "
        "no ChainReader outside bench/e2e and its alias"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

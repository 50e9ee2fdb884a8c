"""Times, in a fresh interpreter, what a CLI call pays before it works.

    python3 setup_probe.py [REFERENCE_FILE ...]

Starts the clock before anything but `time` and `sys` (both loaded with
every interpreter) is imported, then imports vocab_lint.cli. With reference
files it also parses them and builds the suggest index, as
`vocab-lint suggest` does. Prints two numbers: the import time and the whole
set-up time, in seconds. The worker starts it; the program under test comes
from PYTHONPATH.
"""

import sys
import time


def load_references(paths: list[str]):
    """Parse the reference files and build the index, as `vocab-lint
    suggest` does."""
    from vocab_lint.engine import RuleConfig, build_prefix_map, parse_input
    from vocab_lint.reuse import build_index

    prefixes = build_prefix_map(RuleConfig())
    vocabs = []
    for path in paths:
        vocab, _ = parse_input(path, None)
        vocab.prefix_map.update(prefixes.entries)
        vocabs.append(vocab)
    return build_index(vocabs)


def main() -> None:
    started = time.perf_counter()
    import vocab_lint.cli  # noqa: F401  (the import every CLI call pays)
    imported = time.perf_counter()
    if len(sys.argv) > 1:
        load_references(sys.argv[1:])
    print(imported - started, time.perf_counter() - started)


if __name__ == "__main__":
    main()

"""Timed corpus set-up: import optitheta, generate the corpus, write it.

``bench/run.py`` runs this script as a child process so that the import of
the package is measured cold, in a fresh interpreter, every time:

    python3 bench/setup_corpus.py '<plan json>'

The plan holds ``src`` (the directory that contains the ``optitheta``
package) and ``files``, a list of ``{"path", "seed", "counts"}`` entries;
each entry becomes one corpus of ``bench/corpus.py``, written with
``optitheta.save_dataset``. The
last line of standard output is the elapsed set-up time in seconds.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    plan = json.loads(argv[1])
    start = time.perf_counter()
    sys.path.insert(0, plan["src"])
    from optitheta import save_dataset

    import corpus

    for item in plan["files"]:
        save_dataset(corpus.generate(item["seed"], item["counts"]), item["path"])
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

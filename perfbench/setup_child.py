"""Set up one workload in a process of its own; run.py starts it.

    python3 perfbench/setup_child.py WORKLOAD SEED WHERE ANSWERS RESULT

Generates the inputs under WHERE and pickles (prepared run, set-up time
at nominal speed, raw set-up time) into the file RESULT. With ANSWERS 0
it only times the set-up and the prepared run is None; with 1 it also
derives the expected answers. Run from the root of a depex source tree.
"""

import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str]) -> int:
    workload, seed, where, answers, result = argv
    sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from workload import generate, setup

    if answers == "1":
        done = setup(workload, int(seed), where)
    else:
        _, _, scaled, seconds = generate(workload, int(seed), where)
        done = None, scaled, seconds
    with open(result, "wb") as f:
        pickle.dump(done, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

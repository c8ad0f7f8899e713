"""Load checkpoints with one source tree and check that saving them again
writes the same bytes.

    PYTHONPATH=SRC_DIR python3 tools/checkpoint_resave.py FILE.mllg...

SRC_DIR is the tree's `src` directory. Prints one line per path and exits 1
if any path does not load (a missing file or a directory among them) or
re-saves to other bytes, or if no path is given. Every path is checked, so
checkpoints written by another tree, say a base branch, can be checked to
reload bit-exactly under this one.
"""

import sys
from pathlib import Path

from mllgraph.trainer import CheckpointError, checkpoint_bytes, load_checkpoint


def main(paths) -> int:
    failed = 0
    for path in paths:
        try:
            same = checkpoint_bytes(load_checkpoint(path)) == Path(path).read_bytes()
        except (CheckpointError, OSError) as exc:  # a bad file, or a path that reads no file
            print(f"{path}: does not load: {exc}")
            failed += 1
            continue
        print(f"{path}: {'re-saves to the same bytes' if same else 'RE-SAVES TO OTHER BYTES'}")
        failed += not same
    return 1 if failed or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

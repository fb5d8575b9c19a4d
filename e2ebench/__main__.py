"""``python -m e2ebench run …`` / ``python -m e2ebench repeat …``."""

from __future__ import annotations

import sys

from e2ebench import repeat, run

_COMMANDS = {"run": run.main, "repeat": repeat.main}


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] not in _COMMANDS:
        print(f"usage: python -m e2ebench {{{'|'.join(_COMMANDS)}}} ...",
              file=sys.stderr)
        return 2
    return _COMMANDS[sys.argv[1]](sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())

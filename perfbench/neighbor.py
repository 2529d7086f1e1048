"""Write the item-level neighbour of a ``.dstream`` file.

Usage: python neighbor.py INPUT OUTPUT ITEM   (with ``src`` on PYTHONPATH)

The neighbour is ``generators.neighbor_item`` with ITEM's whole update
column replaced by zeros, which is how a user would audit item-level
privacy with ``dpdistinct probe``.  The package calls are made through
module attributes so that the traced run sees them.
"""

from __future__ import annotations

import sys

from dpdistinct import generators, stream


def main(argv) -> int:
    src_path, dst_path, item = argv
    x = stream.read_file(src_path)
    y = generators.neighbor_item(x, int(item), [0] * x.length)
    stream.write_file(y, dst_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

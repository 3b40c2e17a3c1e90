#!/usr/bin/env python3
"""Count committed entry frames in a pcgbench journal.

CI's kill-and-resume smoke needs to know when a running worker has
durably journaled "enough" cells before SIGKILLing it. With the v3
binary format that is no longer a line count: this walks the
length-prefixed frames (structurally, no CRC check — a torn tail
simply stops the walk, exactly like replay's accounting) and prints
the number of entry frames after the header. Prints 0 for a missing
or unrecognisable file.
"""

import struct
import sys

MAGIC = b"PCGJRNL3"
FRAME_OVERHEAD = 16  # u32 len | u64 cell | u32 crc


def entries(path: str) -> int:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return 0
    if data[: len(MAGIC)] != MAGIC:
        return 0
    count = -1  # frame 0 is the header, not an entry
    offset = len(MAGIC)
    while len(data) - offset >= FRAME_OVERHEAD:
        (length,) = struct.unpack_from("<I", data, offset)
        end = offset + FRAME_OVERHEAD + length
        if end > len(data):
            break  # torn tail
        count += 1
        offset = end
    return max(count, 0)


if __name__ == "__main__":
    print(entries(sys.argv[1]))

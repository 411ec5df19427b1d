"""Peak resident set of the calling process."""

from __future__ import annotations


def peak_rss_mb() -> float:
    """VmHWM of this process image, in MB (2^20 bytes).

    getrusage's ru_maxrss is not used: across fork and exec it keeps the
    parent's peak, so every child of a large parent would report that parent.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")

"""Machine-speed reference for timings taken on a shared machine.

On a shared virtual machine the speed of the same code moves by up to 2x
within milliseconds and drifts for minutes, as other tenants come and go.
The benchmark therefore times a fixed reference kernel next to every
measurement and reports each time scaled to the speed at which the kernel
takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / kernel time next to the measurement

A change to finvar moves the measured time and not the kernel, so it shows
in full. The kernel uses the standard library only, so the set-up probe can
run it before numpy is imported. Op times are scaled the same way by the
kernel of ``jet_kernel.py``, which tracks their slowdown more closely.
"""

import time

# Kernel time on a 2-vCPU KVM guest (Intel Xeon, Sapphire Rapids class)
# while no other tenant competed for its core (0.45-0.47 ms; 0.7-1.0 ms
# when contended). Scaled times then read as that machine's quiet times.
REFERENCE_S = 0.46e-3


def reference_kernel() -> float:
    """Fixed interpreter work (float arithmetic, list and attribute access,
    calls), the kind finvar's hyper-dual jets spend their time on."""
    acc = 0.0
    row = [0.5, 0.25, 0.125, 0.0625]
    for i in range(2000):
        x = row[i % 4]
        acc = acc * 0.5 + x * x - abs(x - 0.3)
        row[i % 4] = min(1.0, x + 1e-3)
    return acc


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start

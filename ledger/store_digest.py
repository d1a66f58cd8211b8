#!/usr/bin/env python3
"""Recorded outputs of cold_sweep, built from a vepro-lab result store.

    python3 ledger/store_digest.py STORE_DIR CLIP[,CLIP...]

Builds, from the store's records, the same per-point lines the ledger
benchmark hashes (canonical key and every CoreStats counter) for the
SVT-AV1 preset-4 quick-geometry CRF sweep over the named clips, and prints
the ledger.json entry: their FNV-1a 64 digest plus the summed modeled
instructions and bitrate and the mean PSNR, which the benchmark compares
within a tolerance. Pointed at the store of `vepro-lab --figures=4
--quick`, it gives the outputs cold_sweep must match.
"""

import glob
import json
import os
import sys

CRFS = (10, 20, 30, 40, 50, 60)
CORE_FIELDS = ("cycles", "instructions", "retiring", "badSpec", "frontend",
               "backend", "backendMemory", "backendCore", "rsStalls",
               "robStalls", "loadBufStalls", "storeBufStalls", "condBranches",
               "mispredicts", "l1iMisses", "l1dAccesses", "l1dMisses",
               "l2Misses", "llcMisses", "invalidations")


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    store, clips = sys.argv[1], sys.argv[2].split(",")

    records = {}
    for path in glob.glob(os.path.join(store, "*.json")):
        with open(path) as f:
            record = json.load(f)
        records[record["key"]] = record["result"]

    lines = []
    picked = []
    for clip in clips:
        for crf in CRFS:
            key = ("encoder=SVT-AV1;video=%s;crf=%d;preset=4;threads=1;"
                   "divisor=8;frames=6;maxTraceOps=1200000" % (clip, crf))
            if key not in records:
                sys.exit("store_digest: %s not in %s" % (key, store))
            core = records[key]["core"]
            lines.append("|".join([key] + [str(core[f]) for f in CORE_FIELDS])
                         + "\n")
            picked.append(records[key])
    lines.sort()
    print(json.dumps({
        "digest": "%016x" % fnv1a64("".join(lines).encode()),
        "instructions": sum(r["instructions"] for r in picked),
        "bitrate_kbps": sum(r["bitrateKbps"] for r in picked),
        "psnr_db": sum(r["psnrDb"] for r in picked) / len(picked),
    }))


if __name__ == "__main__":
    main()

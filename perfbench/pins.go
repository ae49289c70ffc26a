package main

import "fmt"

// pins are the trials.jsonl SHA-256 digests at the default root. Simulated
// statistics must not move under a speed change, so a run whose pinned
// round or pinned serve job produces other bytes is counted as failed.
// Keys are pinKey(workload, size, template).
var pins = map[string]string{
	pinKey(scaleDecay, full, ""):     "57166ecaba3e9275516afc0aab510dade64ed1cf3bfda3f5f1583f41313a8c68",
	pinKey(recursiveSweep, full, ""): "d93c0644ef2ae622aee2b70420779fe46ac14fc330b8eac32edf452c9cedf5f3",
	pinKey(distCheckpoint, full, ""): "48d8bee60e32f58747d9a71f281047aa0e352197da1fe58b9a82128fd74af0bd",
	pinKey(serveMixed, full, "0"):    "e7f97fb50d30e99606a4e9cb38cc5a61b9bd51d3064441d3dddbc9a29a0da8e6",

	pinKey(scaleDecay, tiny, ""):     "f519c57c3a1ea8b0cc6105ea98d7175ef57766d15f81618e221fce5274e9e0ad",
	pinKey(recursiveSweep, tiny, ""): "4d0ebf5fe70788807e9043ff7ad7449de0deb089d77247cfc53aaa6c76f08ff0",
	pinKey(distCheckpoint, tiny, ""): "7108b46873df27fdf14885bff7f34fd06a273a1a2fe9498b5ad66f0e9867afe7",
	pinKey(serveMixed, tiny, "0"):    "e7f97fb50d30e99606a4e9cb38cc5a61b9bd51d3064441d3dddbc9a29a0da8e6",
}

func pinKey(workload string, sz size, tmpl string) string {
	k := fmt.Sprintf("%s/%d", workload, sz)
	if tmpl != "" {
		k += "/" + tmpl
	}
	return k
}

package main

import (
	"fmt"
	"sort"
	"strings"
)

// reference holds the output digest of every workload for seed 1 at the
// full scale, recorded from the simulator's own outputs (the Figure 14
// and 17 tables, idle_windows' normalized refresh and event statistics,
// exec_driven's per-phase refresh reduction and per-core access, fill and
// writeback counts). A run of another seed or scale has no reference; it
// prints its digest for comparison between two builds and still checks
// that every iteration, traced or not, produced the same outputs.
var reference = map[string]string{
	"refresh_matrix seed=1 capacity_kb=512 windows=1":               "8103e9b0730301819b623f8fba183729ddb53c5b08df3a1477a4ddb8c9202aec",
	"idle_windows seed=1 capacity_kb=32768 windows=20000":           "335716188e2190e95f2adef45dd4e48363fbafaf19fadbc040e0a80522de8d76",
	"exec_driven seed=1 accesses=400000 capacity_kb=16384 phases=4": "94d91062c5fa3cf9216305737ebac81975a7e769ff0d68547b712cca61fbd1db",
	"ipc_timing seed=1 capacity_kb=1024":                            "83b703817924e5f0844a9a80098d16bb0de5f828ff3c33b3b25e60f127ff5155",
}

// referenceKey identifies a reference by workload, seed and scale.
func referenceKey(name string, seed uint64, p params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d", name, seed)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, p[k])
	}
	return b.String()
}

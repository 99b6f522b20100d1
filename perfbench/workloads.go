package main

// workloads lists the benchmark's workloads, the ones BENCHMARK.json names,
// in reporting order; README.md records why each was chosen and which
// layers it leans on.
var workloads = []*spec{
	{name: "tpcc-mix", ops: tpccOps, setup: setupTPCC},
	{name: "smallbank-repl", ops: smallbankOps, setup: setupSmallBank},
	{name: "tatp-index", ops: tatpOps, setup: setupTATP},
}

// unlisted workloads run only when named and are not part of the benchmark:
// social-scan's final audit fails in a share of runs, not tied to the seed
// (README.md, "Correctness checks"), so its runs reproduce that fault
// instead of measuring. Their per-layer reports omit their own op.* metrics.
var unlisted = []*spec{
	{name: "social-scan", ops: socialOps, setup: setupSocial},
}

func lookup(name string) *spec {
	for _, sp := range append(workloads[:len(workloads):len(workloads)], unlisted...) {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, sp := range workloads {
		out = append(out, sp.name)
	}
	return out
}

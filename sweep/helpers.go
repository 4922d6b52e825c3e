package sweep

import (
	"tailbench/internal/sim"
	"tailbench/internal/workload"
)

// simRunParams builds the simulated-system run parameters for one sweep
// point.
func simRunParams(qps float64, threads int, idealMemory bool, opts Options) sim.RunParams {
	return sim.RunParams{
		QPS:         qps,
		Threads:     threads,
		Requests:    opts.Requests,
		Warmup:      opts.Warmup,
		Seed:        workload.SplitSeed(opts.Seed, 31),
		IdealMemory: idealMemory,
	}
}

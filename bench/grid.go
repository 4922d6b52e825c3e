package main

import (
	"fmt"
	"time"

	"tailbench"
	"tailbench/internal/cluster"
	"tailbench/internal/plan"
	"tailbench/internal/workload"
	"tailbench/sweep"
)

// gridConfig is the grid-plan workload's sweep: 4 policies x 4 shapes x 3
// controllers x fan-outs {1, 4} x reps, each cell a 2 000-request simulation,
// so per-cell set-up weighs as much as the event loop.
func gridConfig(r *run, workers int) sweep.GridConfig {
	return sweep.GridConfig{
		Axes: sweep.GridAxes{
			Policies: cluster.Policies(),
			Shapes: []tailbench.LoadShape{
				nil, // constant at 70% of capacity
				tailbench.Spike(2000, 5000, 200*time.Millisecond, 200*time.Millisecond),
				tailbench.Diurnal(2500, 1500, 500*time.Millisecond),
				tailbench.Burst(1500, 4500, 150*time.Millisecond, 50*time.Millisecond),
			},
			Controllers: []string{sweep.ControllerStatic, cluster.ControllerThreshold, cluster.ControllerTargetP95},
			FanOuts:     []int{1, 4},
		},
		Requests: r.n(2000, 100),
		Reps:     2,
		Seed:     workload.SplitSeed(r.seed, 1),
		Workers:  workers,
	}
}

// planConfig is the planner study on the i-th input seed: 4 policies x 3
// shapes x 2 controllers x fan-outs {1, 4}, replicas 1..32, SLO 20 ms on the
// peak windowed p99.
func planConfig(r *run, i int) plan.Config {
	return plan.Config{
		Grid: sweep.GridConfig{
			Axes: sweep.GridAxes{
				Policies: cluster.Policies(),
				Shapes: []tailbench.LoadShape{
					nil,
					tailbench.Spike(2000, 5000, 500*time.Millisecond, 500*time.Millisecond),
					tailbench.Diurnal(2500, 1500, time.Second),
				},
				Controllers: []string{sweep.ControllerStatic, cluster.ControllerThreshold},
				FanOuts:     []int{1, 4},
			},
			Requests: r.n(7000, 300),
			Seed:     workload.SplitSeed(workload.SplitSeed(r.seed, 2), int64(i)),
			Workers:  2,
			Window:   25 * time.Millisecond,
		},
		SLO:         20 * time.Millisecond,
		MinReplicas: 1,
		MaxReplicas: 32,
	}
}

// gridPass is one RunGrid call: its wall time, its mean per-cell host time,
// and the hash of its reports with the one wall-clock field zeroed. The mean
// it is, not the median: cells fall into a cheap group (fan-out 1) and a dear
// one (fan-out 4) of equal size, and a median sits on the edge between them.
type gridPass struct {
	wall   time.Duration
	cellUs float64
	cells  int
	hash   uint64
}

func runGridOnce(r *run, span string, workers int) (gridPass, error) {
	end := r.spans.begin(span)
	start := time.Now()
	res, err := sweep.RunGrid(gridConfig(r, workers))
	wall := time.Since(start)
	end()
	if err != nil {
		return gridPass{}, err
	}
	var inCells time.Duration
	for i := range res.Reports {
		inCells += time.Duration(res.Reports[i].SimWallNs)
		res.Reports[i].SimWallNs = 0
	}
	return gridPass{wall: wall, cellUs: us(inCells) / float64(res.Cells), cells: res.Cells, hash: hashResult(res)}, nil
}

// cellsPerSecond is the median grid throughput over the passes.
func cellsPerSecond(passes []gridPass) float64 {
	var rates []float64
	for _, p := range passes {
		rates = append(rates, float64(p.cells)/p.wall.Seconds())
	}
	return median(rates)
}

// gridPasses runs the grid n times and checks that every pass reports the
// same bytes.
func gridPasses(r *run, span string, workers, n int) (passes []gridPass, err error) {
	for p := 0; p < n; p++ {
		pass, err := runGridOnce(r, span, workers)
		if err != nil {
			r.count(1, 1)
			return nil, err
		}
		if p > 0 && pass.hash != passes[0].hash {
			r.count(int64(pass.cells), int64(pass.cells))
			return nil, fmt.Errorf("grid pass %d hashed %016x, pass 0 hashed %016x", p, pass.hash, passes[0].hash)
		}
		r.count(int64(pass.cells), 0)
		passes = append(passes, pass)
	}
	return passes, nil
}

// planPasses runs the planner study twice on each of inputs seeds (how much
// the search simulates depends on the seed by a tenth and more, so a run
// measures a few and reports their median), checks that both calls on a seed
// report the same bytes, and returns the wall times and the first result.
func planPasses(r *run, inputs int) (walls []float64, first *plan.Result, err error) {
	for i := 0; i < inputs; i++ {
		var hashes [2]uint64
		for p := range hashes {
			end := r.spans.begin("plan.Run")
			start := time.Now()
			res, err := plan.Run(planConfig(r, i))
			wall := time.Since(start)
			end()
			if err != nil {
				r.count(1, 1)
				return nil, nil, err
			}
			walls = append(walls, wall.Seconds())
			hashes[p] = hashResult(res)
			if first == nil {
				first = res
				r.note("result_hash.plan", fmt.Sprintf("%016x", hashes[p]))
			}
		}
		if hashes[1] != hashes[0] {
			r.count(2, 1)
			return nil, nil, fmt.Errorf("plan input %d hashed %016x, then %016x", i, hashes[0], hashes[1])
		}
		r.count(2, 0)
	}
	return walls, first, nil
}

func runGridPlan(r *run) {
	if r.traced {
		runGridPlanTraced(r)
		return
	}
	// Set-up: one grid at a tenth of the cell size, which builds every axis
	// value, the shared service-time sample set and the per-worker arenas.
	var setups []float64
	for i := 0; i < 15; i++ { // the first few, on a cold heap, take nearly twice as long
		cfg := gridConfig(r, 2)
		cfg.Requests /= 10
		start := time.Now()
		if _, err := sweep.RunGrid(cfg); err != nil {
			r.failf("setup: %v", err)
			return
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.put("setup_s", median(setups), len(setups))

	passes, err := gridPasses(r, "sweep.RunGrid", 2, 5)
	if err != nil {
		r.failf("%v", err)
		return
	}
	var cellUs []float64
	for _, p := range passes {
		cellUs = append(cellUs, p.cellUs)
	}
	r.note("result_hash.grid", fmt.Sprintf("%016x", passes[0].hash))
	r.put("rate_per_s", cellsPerSecond(passes), len(passes)*passes[0].cells)
	r.put("typical_us", median(cellUs), len(passes)*passes[0].cells)

	walls, res, err := planPasses(r, 3)
	if err != nil {
		r.failf("%v", err)
		return
	}
	if res.Best == nil {
		r.failf("the planner found no feasible configuration")
	}
	r.note("events_simulated.plan", fmt.Sprint(res.Stats.EventsSimulated))
	r.put("tail_us", median(walls)*1e6, len(walls))
}

func runGridPlanTraced(r *run) {
	if _, err := runGridOnce(r, "sweep.RunGrid warm", 2); err != nil {
		r.failf("%v", err)
		return
	}
	two, err := gridPasses(r, "sweep.RunGrid workers=2", 2, 3)
	if err != nil {
		r.failf("%v", err)
		return
	}
	one, err := gridPasses(r, "sweep.RunGrid workers=1", 1, 3)
	if err != nil {
		r.failf("%v", err)
		return
	}
	if one[0].hash != two[0].hash {
		r.failf("grid with 1 worker hashed %016x, with 2 workers %016x", one[0].hash, two[0].hash)
	}
	r.put("cells_per_s_w2", cellsPerSecond(two), len(two)*two[0].cells)
	r.put("cells_per_s_w1", cellsPerSecond(one), len(one)*one[0].cells)

	// One cell at a time through RunCell with a reused arena, as a grid
	// worker runs them.
	cfg := gridConfig(r, 1)
	arena := sweep.NewCellArena(cfg)
	cell := sweep.Cell{Policy: cluster.PolicyLeastQueue, Controller: sweep.ControllerStatic, FanOut: 1}
	n := r.n(200, 20)
	cellMs := make([]float64, 0, n)
	end := r.spans.begin("sweep.RunCell")
	cellSpan := r.spans.last()
	for i := 0; i < n; i++ {
		cell.Index, cell.Seed = i, workload.SplitSeed(cfg.Seed, int64(i))
		start := time.Now()
		if _, err := sweep.RunCell(cfg, cell, sweep.CellLimits{}, arena); err != nil {
			r.failf("RunCell: %v", err)
			break
		}
		cellMs = append(cellMs, time.Since(start).Seconds()*1e3)
	}
	end()
	r.put("cell_ms", median(cellMs), len(cellMs))
	// The parts of that cell that can be called from outside, replayed n
	// times like the cell itself.
	total := 0.0
	for _, ms := range cellMs {
		total += ms / 1e3
	}
	warm := cfg.Requests / 10
	parts := simCase{
		name: "cell", arrivals: len(cellMs) * (cfg.Requests + warm), shape: tailbench.Constant(2800), samples: len(cellMs) * 3 * cfg.Requests,
		tiers: []replayTier{{cluster.PolicyLeastQueue, 4, 1, len(cellMs) * (cfg.Requests + warm)}},
	}
	self := parts.decompose(r, cellSpan, total)
	r.put("engine_self_s", self, 0)
	r.put("unattributed_frac", self/total, 0)

	walls, res, err := planPasses(r, 1)
	if err != nil {
		r.failf("%v", err)
		return
	}
	r.put("plan_s", median(walls), len(walls))
	st := res.Stats
	r.put("events_simulated", float64(st.EventsSimulated), 0)
	r.put("cells_run", float64(st.CellsRun), 0)
	r.put("cells_pruned", float64(st.CellsPruned), 0)
	r.put("cells_aborted", float64(st.CellsAborted), 0)
	r.put("memo_hits", float64(st.CellsMemoized), 0)

	// The engines take no recorder through RunGrid, so a grid has no traced
	// twin and its overhead reading is 0 by construction.
	scheduleKernels(r, cfg.Requests+warm)
	statsKernels(r, cfg.Requests)
	dispatchKernels(r)
	traceKernel(r)
}

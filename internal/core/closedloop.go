package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/load"
	"tailbench/internal/workload"
)

// RunClosedLoop measures an application with a conventional closed-loop load
// tester: a fixed number of client threads that each issue a request, block
// until its response arrives, and only then issue the next one. This is the
// methodology used by load testers like YCSB and Faban that the paper
// identifies as flawed (Sec. II-B): because a slow request delays the
// client's subsequent requests, the load tester "coordinates" with the
// system under test and systematically underestimates tail latency — the
// coordinated-omission problem. The harness includes it so the error can be
// quantified against the open-loop configurations.
//
// cfg.Clients sets the number of closed-loop client threads; cfg.QPS, if
// positive, adds exponentially distributed think time between a response and
// the next request so the offered load approximates QPS.
func RunClosedLoop(server app.Server, newClient ClientFactory, cfg RunConfig) (*Result, error) {
	if server == nil {
		return nil, ErrNilServer
	}
	if newClient == nil {
		return nil, ErrNilClient
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	collector := newRunCollector(cfg)
	var wg sync.WaitGroup
	perClient := cfg.Requests / cfg.Clients
	perClientWarmup := cfg.WarmupRequests / cfg.Clients
	startTime := time.Now()

	for c := 0; c < cfg.Clients; c++ {
		n := perClient
		w := perClientWarmup
		if c == 0 {
			n += cfg.Requests % cfg.Clients
			w += cfg.WarmupRequests % cfg.Clients
		}
		client, err := newClient(workload.SplitSeed(cfg.Seed, int64(3000+c)))
		if err != nil {
			return nil, fmt.Errorf("core: creating client %d: %w", c, err)
		}
		// Per-client think times at 1/Clients of the configured load shape,
		// so the aggregate offered load tracks QPS (or the shape's rate at
		// the current instant for time-varying shapes). For a constant
		// shape this draws the exact think-time stream of the scalar-QPS
		// harness.
		shape := load.Scaled(cfg.shape(), 1/float64(cfg.Clients))
		var thinkRand *rand.Rand
		if shape.MaxRate() > 0 {
			thinkRand = workload.NewRand(workload.SplitSeed(cfg.Seed, int64(4000+c)))
		}
		deadline := startTime.Add(cfg.Timeout)
		wg.Add(1)
		go func(cl app.Client, requests, warmups int) {
			defer wg.Done()
			for i := 0; i < requests+warmups; i++ {
				if thinkRand != nil {
					for {
						rate := shape.Rate(time.Since(startTime))
						if rate > 0 {
							gap := time.Duration(thinkRand.ExpFloat64() * float64(time.Second) / rate)
							// A gap that lands past the run deadline ends
							// the client (a near-zero rate draws unbounded
							// think times; the deadline bounds them).
							if gap > time.Until(deadline) {
								return
							}
							Sleep(gap)
							break
						}
						// The shape prescribes no load right now (an off
						// phase of a burst, a clipped diurnal trough): hold
						// until it resumes rather than hammering the server
						// saturation-style. A shape that stays at zero past
						// the run deadline ends the client — issuing the
						// leftover requests unpaced would measure a
						// saturation burst the shape never asked for.
						if time.Now().After(deadline) {
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
				req := cl.NextRequest()
				start := time.Now()
				resp, perr := server.Process(req)
				end := time.Now()
				failed := perr != nil
				if !failed && cfg.Validate {
					failed = cl.CheckResponse(req, resp) != nil
				}
				collector.Record(Sample{
					Queue:   0,
					Service: end.Sub(start),
					Sojourn: end.Sub(start),
					Warmup:  i < warmups,
					Err:     failed,
					// No scheduled instants exist in a closed loop; place
					// the sample by completion time instead.
					Offset: end.Sub(startTime),
				})
			}
		}(client, n, w)
	}
	wg.Wait()
	return resultFromSnapshot(server.Name(), Integrated, cfg, collector.snapshot()), nil
}

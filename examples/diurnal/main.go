// Diurnal: drive time-varying load shapes through a replicated cluster and
// watch each balancer policy ride them, using the windowed latency
// accounting that makes time-varying load measurable in the first place —
// whole-run percentiles average a spike's tail excursion away, while the
// per-window series shows exactly when and how far the tail departed.
//
// Two scenarios on a 4-replica xapian (online search) cluster (simulated in
// virtual time from one calibration, so the whole comparison takes seconds
// and is exactly reproducible at the fixed seed):
//
//  1. A 3x load spike: base load at 30% of cluster capacity, spiking to
//     ~90% for a third of the run. Constant-rate provisioning hides this
//     case — the run's average load is well under capacity — but the spike
//     windows show random routing's p99 blowing up (at 90% load a randomly
//     routed replica is often pushed past saturation) while the queue-aware
//     policies (leastq, jsq2) absorb the same excursion with a far lower
//     peak.
//  2. A diurnal cycle: a compressed day/night sine swinging between 10% and
//     70% of capacity, where the windowed series traces the tail following
//     the load crest.
//
// The shapes' time base is derived from the application's measured capacity
// so the fixed request budget covers the whole profile: with xapian's
// ~200µs queries the horizon lands around a second of virtual time. The
// same shapes at any other timescale work unchanged — only the durations
// differ.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"tailbench"
)

const (
	app      = "xapian"
	replicas = 4
	requests = 14000
	warmup   = 1000
	scale    = 0.1
	seed     = 1
)

func main() {
	// Calibrate once so both scenarios share the same capacity estimate and
	// every policy run replays the same service-time samples: policies are
	// compared against an identical workload.
	samples, err := tailbench.MeasureServiceTimes(app, scale, seed, 150)
	if err != nil {
		log.Fatal(err)
	}
	capacity := math.Round(tailbench.SaturationQPS(samples, 1)) * replicas
	// Horizon that the request budget covers at the scenarios' ~50% mean
	// load; the shapes live inside it.
	horizon := time.Duration(float64(requests+warmup) / (0.5 * capacity) * float64(time.Second))
	window := (horizon / 16).Round(10 * time.Microsecond)
	fmt.Printf("%s: %d-replica cluster, nominal capacity ~%.0f QPS\n", app, replicas, capacity)
	fmt.Printf("time base: %v horizon, %v windows (virtual time)\n\n", horizon.Round(10*time.Microsecond), window)

	policies := []string{"random", "leastq", "jsq2"}

	spike := tailbench.Spike(math.Round(0.3*capacity), math.Round(0.9*capacity), horizon/3, horizon/3)
	fmt.Printf("=== 3x spike (%s) ===\n", spike.Spec())
	fmt.Println("mean load is only ~50% of capacity — a constant-rate run at the")
	fmt.Println("same average would show nothing; the spike windows tell the story:")
	runScenario(policies, spike, window, samples)

	diurnal := tailbench.Diurnal(math.Round(0.4*capacity), math.Round(0.3*capacity), horizon/2)
	fmt.Printf("=== diurnal cycle (%s) ===\n", diurnal.Spec())
	runScenario(policies, diurnal, window, samples)
}

func runScenario(policies []string, shape tailbench.LoadShape, window time.Duration, samples []time.Duration) {
	results := make([]*tailbench.ClusterResult, len(policies))
	for i, policy := range policies {
		res, err := tailbench.RunCluster(tailbench.ClusterSpec{
			App:            app,
			Mode:           tailbench.ModeSimulated,
			Policy:         policy,
			Replicas:       replicas,
			Threads:        1,
			Load:           shape,
			Window:         window,
			Requests:       requests,
			Warmup:         warmup,
			Scale:          scale,
			Seed:           seed,
			ServiceSamples: samples,
		})
		if err != nil {
			log.Fatal(err)
		}
		results[i] = res
	}
	fmt.Println()
	fmt.Printf("%-10s %-14s %-14s %s\n", "policy", "overall_p99", "peak_win_p99", "peak/overall")
	for i, res := range results {
		// The peak windowed p99 is how the policy rode the shape's
		// excursion; the whole-run p99 averages that excursion away.
		var peak time.Duration
		for _, w := range res.Windows {
			peak = max(peak, w.P99)
		}
		ratio := 0.0
		if res.Sojourn.P99 > 0 {
			ratio = float64(peak) / float64(res.Sojourn.P99)
		}
		fmt.Printf("%-10s %-14v %-14v %.1fx\n", policies[i],
			res.Sojourn.P99.Round(time.Microsecond), peak.Round(time.Microsecond), ratio)
	}
	for i, res := range results {
		fmt.Printf("\n%s, window by window:\n", policies[i])
		tailbench.WriteWindowTable(os.Stdout, res.Windows)
	}
	fmt.Println()
}

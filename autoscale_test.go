package tailbench

import (
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

// sojournHash fingerprints a raw sojourn sample stream so regression tests
// can pin exact simulated output without embedding thousands of durations.
func sojournHash(samples []time.Duration) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range samples {
		v := uint64(s)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestClusterSimGoldenRegression pins the elastic-cluster refactor's
// compatibility guarantee: a fixed-N scalar-QPS simulated cluster run must
// remain bit-identical to the pre-refactor engine at the same seed. The
// golden values below were captured from the fixed-replica-array
// implementation (before ReplicaSet existed) for every balancer policy; any
// change to the arrival schedule, per-replica RNG streams, or balancer draw
// order shows up here as a hash mismatch.
func TestClusterSimGoldenRegression(t *testing.T) {
	golden := map[string]struct {
		hash           uint64
		mean, p99, max time.Duration
		dispatched     []uint64
	}{
		"random":     {hash: 0x1a2e126d0e051bce, mean: 1125725, p99: 2525584, max: 3452017, dispatched: []uint64{1458, 1494, 1448}},
		"roundrobin": {hash: 0x4b2600b02df3e758, mean: 1014259, p99: 1532271, max: 2244255, dispatched: []uint64{1467, 1467, 1466}},
		"leastq":     {hash: 0x7c8cf577377698ad, mean: 1014404, p99: 1582103, max: 2449227, dispatched: []uint64{1464, 1460, 1476}},
		"jsq2":       {hash: 0xa1f0f537c924f4ff, mean: 1024707, p99: 1714681, max: 2500522, dispatched: []uint64{1485, 1464, 1451}},
	}
	for policy, want := range golden {
		res, err := RunCluster(ClusterSpec{
			App:            "masstree",
			Mode:           ModeSimulated,
			Policy:         policy,
			Replicas:       3,
			Threads:        2,
			QPS:            2500,
			Requests:       4000,
			Warmup:         400,
			Seed:           9,
			KeepRaw:        true,
			ServiceSamples: syntheticServiceSamples(300, 11),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.SojournSamples) != 4000 {
			t.Fatalf("%s: %d samples, want 4000", policy, len(res.SojournSamples))
		}
		if got := sojournHash(res.SojournSamples); got != want.hash {
			t.Errorf("%s: sojourn stream hash = %#x, want %#x (bit-compat with the pre-refactor engine broken)", policy, got, want.hash)
		}
		if res.Sojourn.Mean != want.mean || res.Sojourn.P99 != want.p99 || res.Sojourn.Max != want.max {
			t.Errorf("%s: sojourn summary mean/p99/max = %d/%d/%d, want %d/%d/%d",
				policy, res.Sojourn.Mean, res.Sojourn.P99, res.Sojourn.Max, want.mean, want.p99, want.max)
		}
		for r, d := range want.dispatched {
			if res.PerReplica[r].Dispatched != d {
				t.Errorf("%s: replica %d dispatched %d, want %d", policy, r, res.PerReplica[r].Dispatched, d)
			}
		}
	}
}

// peakWindowP99 returns the worst windowed p99 of a run.
func peakWindowP99(res *ClusterResult) time.Duration {
	var worst time.Duration
	for _, w := range res.Windows {
		if w.P99 > worst {
			worst = w.P99
		}
	}
	return worst
}

// TestAutoscaleSpikeAcceptance is the acceptance scenario for the elastic
// cluster refactor: on a fixed-seed simulated 6x load spike, a threshold
// controller starting from 2 replicas must ride the spike with a peak
// windowed p99 within 1.5x of a statically peak-provisioned 8-replica
// cluster while spending at least 30% fewer replica-seconds. (The measured
// margins are much wider — about 1.2x and 50% — so the assertions are not
// knife-edge.)
func TestAutoscaleSpikeAcceptance(t *testing.T) {
	samples := syntheticServiceSamples(400, 3)
	// ~1000 QPS nominal capacity per replica: base load fits 2 replicas
	// with headroom, the spike needs 6-8.
	base := ClusterSpec{
		App:            "masstree",
		Mode:           ModeSimulated,
		Policy:         "leastq",
		Load:           Spike(1000, 6000, 2*time.Second, 2*time.Second),
		Window:         time.Second,
		Requests:       15000,
		Warmup:         1500,
		Seed:           5,
		ServiceSamples: samples,
	}

	static := base
	static.Replicas = 8
	staticRes, err := RunCluster(static)
	if err != nil {
		t.Fatal(err)
	}
	if staticRes.Controller != "" || len(staticRes.ScalingEvents) != 0 {
		t.Fatalf("fixed cluster grew controller fields: %+v", staticRes)
	}
	if staticRes.PeakReplicas != 8 || staticRes.ReplicaSeconds <= 0 {
		t.Fatalf("fixed cluster cost ledger wrong: peak=%d rs=%.2f", staticRes.PeakReplicas, staticRes.ReplicaSeconds)
	}

	elastic := base
	elastic.Replicas = 2
	elastic.Autoscale = &AutoscaleSpec{
		Policy:      "threshold",
		MinReplicas: 2,
		MaxReplicas: 8,
		Interval:    5 * time.Millisecond,
		HighDepth:   1.5,
		LowDepth:    0.4,
	}
	elasticRes, err := RunCluster(elastic)
	if err != nil {
		t.Fatal(err)
	}

	if elasticRes.Controller != "threshold" || elasticRes.MinReplicas != 2 || elasticRes.MaxReplicas != 8 {
		t.Fatalf("controller fields not recorded: %s", elasticRes)
	}
	if elasticRes.PeakReplicas <= 2 {
		t.Fatalf("controller never scaled up: peak=%d", elasticRes.PeakReplicas)
	}
	if len(elasticRes.ScalingEvents) == 0 {
		t.Fatal("no scaling events recorded")
	}
	// SLO side: peak windowed p99 within 1.5x of always-on peak capacity.
	staticPeak, elasticPeak := peakWindowP99(staticRes), peakWindowP99(elasticRes)
	if staticPeak <= 0 || elasticPeak <= 0 {
		t.Fatalf("missing windowed series: static=%v elastic=%v", staticPeak, elasticPeak)
	}
	if float64(elasticPeak) > 1.5*float64(staticPeak) {
		t.Errorf("elastic peak windowed p99 = %v, want within 1.5x of static %v", elasticPeak, staticPeak)
	}
	// Cost side: at least 30% fewer replica-seconds than peak provisioning.
	if elasticRes.ReplicaSeconds > 0.7*staticRes.ReplicaSeconds {
		t.Errorf("elastic replica-seconds = %.2f, want <= 70%% of static %.2f",
			elasticRes.ReplicaSeconds, staticRes.ReplicaSeconds)
	}
	// The windowed series must trace the membership: near 2 at base load,
	// well above it while the spike is on.
	var baseline, crest float64
	for _, w := range elasticRes.Windows {
		if w.End <= 2*time.Second && w.Replicas > baseline {
			baseline = w.Replicas
		}
		if w.Replicas > crest {
			crest = w.Replicas
		}
	}
	if baseline > 3.5 || crest < 5 {
		t.Errorf("window replica counts don't trace the spike: baseline=%.1f crest=%.1f", baseline, crest)
	}
	// Scale-down happened: some replica was drained and retired.
	retired := false
	for _, rep := range elasticRes.PerReplica {
		if rep.State == "retired" {
			retired = true
			if rep.Lifetime != rep.RetiredAt-rep.ProvisionedAt {
				t.Errorf("retired replica lifetime inconsistent: %+v", rep)
			}
		}
	}
	if !retired {
		t.Error("no replica retired after the spike subsided")
	}
}

// TestRunClusterAutoscaleValidation pins the API-boundary checks of the
// autoscale sub-spec.
func TestRunClusterAutoscaleValidation(t *testing.T) {
	base := ClusterSpec{App: "masstree", Mode: ModeSimulated, Replicas: 2, Requests: 50,
		ServiceSamples: syntheticServiceSamples(20, 1)}

	bogus := base
	bogus.Autoscale = &AutoscaleSpec{Policy: "bogus"}
	if _, err := RunCluster(bogus); err == nil || !strings.Contains(err.Error(), "controller policy") {
		t.Errorf("unknown controller: err = %v", err)
	}

	// With autoscaling, slowdowns are per pool slot (MaxReplicas), not per
	// initial replica.
	pooled := base
	pooled.Autoscale = &AutoscaleSpec{Policy: "threshold", MaxReplicas: 4}
	pooled.Slowdowns = []float64{1, 1}
	if _, err := RunCluster(pooled); err == nil || !strings.Contains(err.Error(), "MaxReplicas") {
		t.Errorf("pool-mismatched slowdowns: err = %v", err)
	}
	pooled.Slowdowns = []float64{1, 1, 2, 1}
	if _, err := RunCluster(pooled); err != nil {
		t.Errorf("pool-sized slowdowns rejected: %v", err)
	}

	// MaxReplicas defaults to twice the initial count and never below it.
	defaulted := base
	defaulted.Autoscale = &AutoscaleSpec{Policy: "threshold"}
	res, err := RunCluster(defaulted)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxReplicas != 4 {
		t.Errorf("default MaxReplicas = %d, want 2x initial (4)", res.MaxReplicas)
	}
}

// TestWarmupNegativeMeansZero pins the public warmup contract: -1 disables
// warmup entirely (previously inexpressible, since 0 selects the default).
func TestWarmupNegativeMeansZero(t *testing.T) {
	spec := ClusterSpec{
		App:            "masstree",
		Mode:           ModeSimulated,
		Replicas:       2,
		QPS:            2000,
		Requests:       500,
		Warmup:         -1,
		ServiceSamples: syntheticServiceSamples(50, 1),
	}
	res, err := RunCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 500 {
		t.Fatalf("Requests = %d, want all 500 measured with no warmup", res.Requests)
	}
	var dispatched uint64
	for _, rep := range res.PerReplica {
		dispatched += rep.Dispatched
	}
	if dispatched != 500 {
		t.Fatalf("dispatched = %d, want exactly 500 (no warmup traffic)", dispatched)
	}
}

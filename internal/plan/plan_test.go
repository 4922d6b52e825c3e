package plan

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"tailbench/sweep"
)

// planTestConfig is the pinned demo space: two balancer policies, constant
// load, fan-outs 1 and 4, replica range [1, 16]. The single-cluster tuples
// hold a 20ms SLO from ~3 replicas up; the fan-out tuples pay a 4x longer
// schedule plus a static front tier, so branch-and-bound prunes them on
// cost without a single probe.
func planTestConfig(seed int64, workers int) Config {
	return Config{
		Grid: sweep.GridConfig{
			Axes: sweep.GridAxes{
				Policies: []string{"leastq", "random"},
				FanOuts:  []int{1, 4},
			},
			Requests: 400,
			Seed:     seed,
			Workers:  workers,
			Window:   25 * time.Millisecond,
		},
		SLO:         20 * time.Millisecond,
		MinReplicas: 1,
		MaxReplicas: 16,
	}
}

// TestPlannerMatchesExhaustive is the equivalence property: across several
// seeds, the adaptive search — abort, bisection, pruning, memoization all
// on — returns the exact optimum and, for every tuple it fully searched,
// the exact frontier point that the exhaustive scan with every optimization
// disabled returns. Pruned tuples must be genuinely dominated: their
// exhaustive frontier cost may not beat the optimum.
func TestPlannerMatchesExhaustive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		adaptive, err := Run(planTestConfig(seed, 4))
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		base := planTestConfig(seed, 4)
		base.DisableAbort = true
		exhaustive, err := Exhaustive(base)
		if err != nil {
			t.Fatalf("seed %d: Exhaustive: %v", seed, err)
		}

		if adaptive.Best == nil || exhaustive.Best == nil {
			t.Fatalf("seed %d: missing Best (adaptive %v, exhaustive %v)",
				seed, adaptive.Best, exhaustive.Best)
		}
		if !reflect.DeepEqual(adaptive.Best, exhaustive.Best) {
			t.Errorf("seed %d: optimum differs:\nadaptive   %+v\nexhaustive %+v",
				seed, adaptive.Best, exhaustive.Best)
		}
		for i := range adaptive.Tuples {
			a, e := adaptive.Tuples[i], exhaustive.Tuples[i]
			if a.Status == StatusPruned {
				if e.Status == StatusFeasible && e.ReplicaSeconds < adaptive.Best.ReplicaSeconds {
					t.Errorf("seed %d: tuple %d pruned but its true frontier %.4f beats the optimum %.4f",
						seed, a.Tuple, e.ReplicaSeconds, adaptive.Best.ReplicaSeconds)
				}
				continue
			}
			if !reflect.DeepEqual(a, e) {
				t.Errorf("seed %d: tuple %d frontier differs:\nadaptive   %+v\nexhaustive %+v",
					seed, a.Tuple, a, e)
			}
		}
	}
}

// TestPlannerEventsReduction is the headline acceptance criterion: on the
// pinned demo space (`tailbench plan -policies leastq,random -fanouts 1,4
// -seed 42`) the adaptive planner finds the exact optimum of the exhaustive
// grid while simulating at least 10x fewer events, and each -study stage
// simulates exactly its pinned event count.
func TestPlannerEventsReduction(t *testing.T) {
	adaptive, err := Run(planTestConfig(42, 4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	base := planTestConfig(42, 4)
	base.DisableAbort = true
	exhaustive, err := Exhaustive(base)
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	if !reflect.DeepEqual(adaptive.Best, exhaustive.Best) {
		t.Fatalf("optimum differs:\nadaptive   %+v\nexhaustive %+v", adaptive.Best, exhaustive.Best)
	}
	ae, ee := adaptive.Stats.EventsSimulated, exhaustive.Stats.EventsSimulated
	if ae == 0 || ee == 0 {
		t.Fatalf("missing event counts: adaptive %d, exhaustive %d", ae, ee)
	}
	if ratio := float64(ee) / float64(ae); ratio < 10 {
		t.Fatalf("adaptive simulated %d events vs exhaustive %d — only %.1fx cheaper, want >= 10x",
			ae, ee, ratio)
	}
	// The trace must account for the search: something pruned, something
	// aborted, every frontier report served from the memo.
	s := adaptive.Stats
	if s.TuplesPruned == 0 || s.CellsPruned == 0 {
		t.Errorf("branch-and-bound pruned nothing: %+v", s)
	}
	if s.CellsAborted == 0 {
		t.Errorf("SLO early abort never fired: %+v", s)
	}
	if s.CellsMemoized == 0 {
		t.Errorf("frontier assembly hit the memo zero times: %+v", s)
	}
	if s.CellsRun+s.CellsPruned > s.CellsTotal {
		t.Errorf("trace does not add up: %+v", s)
	}

	// The events each stage of `tailbench plan -study` simulates on this
	// space are deterministic, so they are pinned exactly: a count that
	// grows means the search got less effective, one that shrinks means it
	// changed and these numbers (and README's study table) need refreshing.
	abort, err := Exhaustive(planTestConfig(42, 4))
	if err != nil {
		t.Fatalf("Exhaustive with abort: %v", err)
	}
	nomemo := planTestConfig(42, 4)
	nomemo.DisableMemo = true
	adaptiveNoMemo, err := Run(nomemo)
	if err != nil {
		t.Fatalf("Run without memo: %v", err)
	}
	for _, stage := range []struct {
		name      string
		got, want int64
	}{
		{"exhaustive", exhaustive.Stats.EventsSimulated, 84480},
		{"exhaustive-abort", abort.Stats.EventsSimulated, 72213},
		{"adaptive-nomemo", adaptiveNoMemo.Stats.EventsSimulated, 4402},
		{"adaptive", adaptive.Stats.EventsSimulated, 3522},
	} {
		if stage.got != stage.want {
			t.Errorf("stage %s simulated %d events, pinned at %d", stage.name, stage.got, stage.want)
		}
	}
}

// TestPlannerWorkerInvariance pins the determinism contract: the frontier
// JSON and CSV are byte-identical whether probes ran on one worker or
// eight.
func TestPlannerWorkerInvariance(t *testing.T) {
	serial, err := Run(planTestConfig(7, 1))
	if err != nil {
		t.Fatalf("Run(workers=1): %v", err)
	}
	parallel, err := Run(planTestConfig(7, 8))
	if err != nil {
		t.Fatalf("Run(workers=8): %v", err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("frontier JSON differs between workers=1 and workers=8 (%d vs %d bytes)", a.Len(), b.Len())
	}
	var c, d bytes.Buffer
	if err := serial.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteCSV(&d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Bytes(), d.Bytes()) {
		t.Fatal("frontier CSV differs between workers=1 and workers=8")
	}
}

// TestPlannerMemoSaving pins what the memo is for: disabling it changes no
// answer, but frontier assembly has to re-simulate what the cache would
// have served, costing extra cells and events.
func TestPlannerMemoSaving(t *testing.T) {
	memo, err := Run(planTestConfig(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := planTestConfig(5, 4)
	cfg.DisableMemo = true
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memo.Tuples, bare.Tuples) || !reflect.DeepEqual(memo.Best, bare.Best) {
		t.Fatal("DisableMemo changed the frontier")
	}
	if memo.Stats.CellsMemoized == 0 {
		t.Fatalf("memoized run reports zero cache hits: %+v", memo.Stats)
	}
	if bare.Stats.CellsMemoized != 0 {
		t.Fatalf("memo disabled but %d hits reported", bare.Stats.CellsMemoized)
	}
	if bare.Stats.CellsRun <= memo.Stats.CellsRun || bare.Stats.EventsSimulated <= memo.Stats.EventsSimulated {
		t.Fatalf("memo saved nothing: with %+v, without %+v", memo.Stats, bare.Stats)
	}
}

// TestExhaustiveCostAbort pins the sequential cost-bounded scan: identical
// frontier, strictly fewer events — the post-frontier cells stop once
// their accrued cost proves them dominated.
func TestExhaustiveCostAbort(t *testing.T) {
	plain, err := Exhaustive(planTestConfig(9, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := planTestConfig(9, 4)
	cfg.CostAbort = true
	bounded, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Best, bounded.Best) || !reflect.DeepEqual(plain.Tuples, bounded.Tuples) {
		t.Fatal("CostAbort changed the frontier")
	}
	if bounded.Stats.EventsSimulated >= plain.Stats.EventsSimulated {
		t.Fatalf("cost abort saved nothing: %d vs %d events",
			bounded.Stats.EventsSimulated, plain.Stats.EventsSimulated)
	}
}

// TestPlannerValidation pins the Config contract errors.
func TestPlannerValidation(t *testing.T) {
	cfg := planTestConfig(1, 1)
	cfg.SLO = 0
	if _, err := Run(cfg); !errors.Is(err, ErrNoSLO) {
		t.Errorf("missing SLO: got %v, want ErrNoSLO", err)
	}
	cfg = planTestConfig(1, 1)
	cfg.Grid.Window = 0
	if _, err := Run(cfg); !errors.Is(err, ErrNoWindow) {
		t.Errorf("missing window: got %v, want ErrNoWindow", err)
	}
	cfg = planTestConfig(1, 1)
	cfg.MinReplicas, cfg.MaxReplicas = 8, 4
	if _, err := Run(cfg); !errors.Is(err, ErrBounds) {
		t.Errorf("inverted bounds: got %v, want ErrBounds", err)
	}
}

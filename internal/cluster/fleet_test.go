//lint:allow simtime live-fleet tests: servers sleep or block to keep requests in flight on the wall clock

package cluster

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/core"
)

func newFakeClient(int64) (app.Client, error) { return fakeClient{}, nil }

// TestNetLoadOfUndialedReplica pins the shared load signal for a replica
// whose connection pool failed to dial: it reads as maximally loaded, so the
// queue-aware balancers never prefer it over a live replica, whichever
// engine drives the fleet.
func TestNetLoadOfUndialedReplica(t *testing.T) {
	tr := &netTransport[int]{}
	if got := tr.load(&Replica[int]{}); got != math.MaxInt {
		t.Fatalf("load of a replica without a pool = %d, want math.MaxInt", got)
	}
	snapshot := []Candidate{{ID: 0, Outstanding: tr.load(&Replica[int]{})}, {ID: 1, Outstanding: 1000}}
	for _, policy := range []string{PolicyLeastQueue, PolicyJSQ2} {
		b, err := NewBalancer(policy, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if pick := b.Pick(snapshot); pick != 1 {
				t.Fatalf("%s pick %d chose the undialed replica", policy, i)
			}
		}
	}
}

// killSwitch is an app.Server that fires its trigger once, on its k-th
// request, and then holds that request long enough for the trigger to land
// while it is still in flight.
type killSwitch struct {
	k       int64
	seen    atomic.Int64
	trigger func()
}

func (s *killSwitch) Name() string { return "fake" }
func (s *killSwitch) Close() error { return nil }
func (s *killSwitch) Process(req app.Request) (app.Response, error) {
	if s.seen.Add(1) == s.k {
		s.trigger()
		time.Sleep(20 * time.Millisecond)
	}
	return app.Response(req), nil
}

// inFlightOf extracts the in-flight count from a lost-replica error.
func inFlightOf(t *testing.T, err error, replica int) int {
	t.Helper()
	if err == nil {
		t.Fatal("a lost replica must fail the run")
	}
	m := regexp.MustCompile(`replica (\d+) lost its connection with (\d+) requests in flight`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error does not diagnose the lost replica: %v", err)
	}
	if id, _ := strconv.Atoi(m[1]); id != replica {
		t.Fatalf("error names replica %d, want %d: %v", id, replica, err)
	}
	n, _ := strconv.Atoi(m[2])
	return n
}

// TestLostReplicaEndsClusterRun kills one replica's NetServer mid-run: the
// run must end promptly with an error naming the replica and its in-flight
// count, not spin in the drain poll until Timeout.
func TestLostReplicaEndsClusterRun(t *testing.T) {
	var eng *liveEngine
	victim := &killSwitch{k: 50}
	victim.trigger = func() {
		// Close waits for the server's workers, one of which is the caller.
		go eng.fleet.tr.(*netTransport[clusterTag]).servers[1].Close()
	}
	var err error
	eng, err = newLiveEngine([]app.Server{&fakeServer{delay: 100 * time.Microsecond}, victim}, newFakeClient, Config{
		Policy:         PolicyRoundRobin,
		Transport:      TransportLoopback,
		QPS:            2000,
		Requests:       40000, // a 20 s schedule the kill must cut short
		WarmupRequests: -1,
		Seed:           3,
		Validate:       true,
		Timeout:        60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = eng.run("fake")
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("run took %v after the replica died, want under 2s", took)
	}
	if n := inFlightOf(t, err, 1); n < 1 {
		t.Errorf("in-flight count = %d, want the held request at least: %v", n, err)
	}
	for _, rep := range eng.fleet.replicas {
		if n := rep.outstanding.Load(); n != 0 {
			t.Errorf("replica %d still has %d requests outstanding", rep.ID(), n)
		}
	}
}

// TestLostReplicaFailsEveryPendingTag drives a fleet the way a pipeline
// tier does — its own tag type, its own callback — and kills the replica
// with every request still pending: each tag must come back exactly once,
// failed, through the normal completion path.
func TestLostReplicaFailsEveryPendingTag(t *testing.T) {
	const n = 20
	release := make(chan struct{})
	blocked := blockingServer{release: release}
	var mu sync.Mutex
	failed := make(map[*int]int)
	resolved := make(chan struct{}, n)
	fleet, err := NewFleet([]app.Server{blocked}, Config{Policy: PolicyLeastQueue, Threads: 1, Replicas: 1, Transport: TransportLoopback},
		"test_replica", func(rep *Replica[*int], tag *int, c Completion) {
			rep.Finish(core.Sample{Err: c.Failed}, time.Millisecond)
			if c.Failed {
				mu.Lock()
				failed[tag]++
				mu.Unlock()
			}
			resolved <- struct{}{}
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Serve(fakeClient{}); err != nil {
		t.Fatal(err)
	}
	tags := make([]*int, n)
	for i := range tags {
		tags[i] = new(int)
		if err := fleet.Dispatch(0, app.Request{0x1}, tags[i]); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		fleet.tr.(*netTransport[*int]).servers[0].Close()
		close(closed)
	}()
	for i := 0; i < n; i++ {
		select {
		case <-resolved:
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d pending tags resolved after the replica died", i, n)
		}
	}
	close(release)
	<-closed
	for i, tag := range tags {
		if failed[tag] != 1 {
			t.Errorf("tag %d resolved as failed %d times, want once", i, failed[tag])
		}
	}
	if err := fleet.Dispatch(0, app.Request{0x1}, new(int)); err == nil || !strings.Contains(err.Error(), "lost its connection") {
		t.Errorf("dispatch after the loss = %v, want the lost-replica error", err)
	}
	if got := inFlightOf(t, fleet.Shutdown(time.Now().Add(time.Second)), 0); got != n {
		t.Errorf("in-flight count = %d, want %d", got, n)
	}
}

// blockingServer holds every request until released.
type blockingServer struct{ release chan struct{} }

func (s blockingServer) Name() string { return "fake" }
func (s blockingServer) Close() error { return nil }
func (s blockingServer) Process(req app.Request) (app.Response, error) {
	<-s.release
	return app.Response(req), nil
}

// spinServer busy-waits its service time, so the slowdown sleep is the only
// sleep in a request's service.
type spinServer struct{ work time.Duration }

func (spinServer) Name() string { return "spin" }
func (s spinServer) Process(req app.Request) (app.Response, error) {
	for deadline := time.Now().Add(s.work); time.Now().Before(deadline); {
	}
	return app.Response(req), nil
}
func (spinServer) Close() error { return nil }

// TestSlowdownIsExact pins the size of straggler injection on both serving
// runtimes (the in-process worker and the networked slowServer): a 2x
// slowdown over 200 µs of service adds 200 µs, not the runtime's 1 ms
// timer tick (a time.Sleep slowdown put the p50 at 1.2 ms).
func TestSlowdownIsExact(t *testing.T) {
	for _, transport := range []string{TransportInProcess, TransportLoopback} {
		t.Run(transport, func(t *testing.T) {
			res, err := Run("spin", []app.Server{spinServer{work: 200 * time.Microsecond}},
				newFakeClient,
				Config{
					Policy:         PolicyRoundRobin,
					Threads:        1,
					Transport:      transport,
					QPS:            1000,
					Requests:       400,
					WarmupRequests: 40,
					Seed:           5,
					Slowdowns:      []float64{2},
				})
			if err != nil {
				t.Fatal(err)
			}
			// The median, not the mean: each preemption of the spin is
			// doubled by the slowdown, and on a loaded host those few
			// requests pull the mean past 600 µs while the median holds.
			if p50 := res.Service.P50; p50 < 380*time.Microsecond || p50 > 520*time.Microsecond {
				t.Errorf("2x-slowed 200µs service has p50 %v, want within [380µs, 520µs]", p50)
			}
		})
	}
}

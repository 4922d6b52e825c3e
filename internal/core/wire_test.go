package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/netproto"
)

// TestDepthEstimateContract pins the one-word estimate to the contract the
// mutex it replaced kept: a send ordered before a report is erased by it,
// one ordered after it is counted.
func TestDepthEstimateContract(t *testing.T) {
	const send = -1
	for _, c := range []struct {
		name string
		ops  []int // send, or a reported depth
		want int
	}{
		{"nothing yet", nil, 0},
		{"sends only", []int{send, send, send}, 3},
		{"report erases earlier sends", []int{send, send, 5}, 5},
		{"sends after a report count", []int{5, send, send}, 7},
		{"report to zero", []int{send, send, 0}, 0},
		{"interleaved", []int{send, 2, send, send, 1, send}, 2},
		{"latest report wins", []int{9, send, 3}, 3},
		{"large depth", []int{1 << 31, send}, 1<<31 + 1},
	} {
		var e depthEstimate
		for _, op := range c.ops {
			if op == send {
				e.sent()
			} else {
				e.reported(uint32(op))
			}
		}
		if got := e.value(); got != c.want {
			t.Errorf("%s: estimate %d, want %d", c.name, got, c.want)
		}
	}

	// Concurrent senders around a report: every send that finished before
	// it is erased, every send that started after it is counted.
	var e depthEstimate
	var wg sync.WaitGroup
	burst := func() {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					e.sent()
				}
			}()
		}
		wg.Wait()
	}
	burst()
	e.reported(7)
	if got := e.value(); got != 7 {
		t.Fatalf("after the report: %d, want 7", got)
	}
	burst()
	if got := e.value(); got != 7+4000 {
		t.Fatalf("sends after the report: %d, want %d", got, 7+4000)
	}
}

// retainServer echoes every request and keeps the slice it was handed, as
// an application is allowed to.
type retainServer struct {
	mu   sync.Mutex
	kept [][]byte
}

func (s *retainServer) Name() string { return "retain" }
func (s *retainServer) Close() error { return nil }
func (s *retainServer) Process(req app.Request) (app.Response, error) {
	s.mu.Lock()
	s.kept = append(s.kept, req)
	s.mu.Unlock()
	return app.Response(req), nil
}

// ownedPayload is request id's payload: the id, then a pattern of it.
func ownedPayload(id uint64) []byte {
	p := make([]byte, 64)
	binary.BigEndian.PutUint64(p, id)
	for i := 8; i < len(p); i++ {
		p[i] = byte(id*31 + uint64(i))
	}
	return p
}

// TestNetServerPayloadOwnership drives a loopback NetServer at saturation
// over two connections with an application that keeps every request slice:
// each must still hold the bytes the client sent once the run is over, and
// each echoed response must match its request. A request payload that
// aliased the server's read buffer would be overwritten by later frames.
func TestNetServerPayloadOwnership(t *testing.T) {
	srv := &retainServer{}
	ns := NewNetServer(srv, 2)
	addr, err := ns.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	const n = 20000
	var answered, bad atomic.Int64
	done := make(chan struct{})
	rc, err := DialReplica(addr, 2, func(m *netproto.Message, _ time.Time) {
		if m.Type != netproto.TypeResponse || !bytes.Equal(m.Payload, ownedPayload(m.ID)) {
			bad.Add(1)
		}
		if answered.Add(1) == n {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for id := uint64(0); id < n; id++ {
		if err := rc.Send(id, ownedPayload(id)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d responses after 30s", answered.Load(), n)
	}
	if b := bad.Load(); b > 0 {
		t.Fatalf("%d of %d echoed responses differ from their requests", b, n)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.kept) != n {
		t.Fatalf("server kept %d requests, want %d", len(srv.kept), n)
	}
	for _, p := range srv.kept {
		if len(p) != 64 || !bytes.Equal(p, ownedPayload(binary.BigEndian.Uint64(p))) {
			t.Fatalf("a retained request changed after it was processed: %x", p)
		}
	}
}

// echoServer answers with the request itself.
type echoServer struct{}

func (echoServer) Name() string { return "echo" }
func (echoServer) Close() error { return nil }
func (echoServer) Process(req app.Request) (app.Response, error) {
	return app.Response(req), nil
}

// TestReplicaRoundTripAllocs pins the allocations of one loopback round
// trip through ReplicaConn and NetServer, both sides counted: the server's
// copy of the request payload is the only one.
func TestReplicaRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ns := NewNetServer(echoServer{}, 1)
	addr, err := ns.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	answered := make(chan uint64, 1)
	rc, err := DialReplica(addr, 1, func(m *netproto.Message, _ time.Time) { answered <- m.ID })
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	payload := make([]byte, 64)
	var id uint64
	trip := func() {
		if err := rc.Send(id, payload); err != nil {
			t.Fatal(err)
		}
		if got := <-answered; got != id {
			t.Fatalf("round trip %d answered as %d", id, got)
		}
		id++
	}
	for i := 0; i < 200; i++ {
		trip()
	}
	if allocs := testing.AllocsPerRun(2000, trip); allocs > 1 {
		t.Fatalf("%v allocations per loopback round trip, want at most 1", allocs)
	}
}

func TestReplicaSendAfterClose(t *testing.T) {
	ns := NewNetServer(echoServer{}, 1)
	addr, err := ns.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	rc, err := DialReplica(addr, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	for i := 0; i < 4; i++ {
		if err := rc.Send(uint64(i), []byte("late")); !errors.Is(err, netproto.ErrClosed) {
			t.Fatalf("Send after Close: %v, want netproto.ErrClosed", err)
		}
	}
	if n := rc.Outstanding(); n != 0 {
		t.Fatalf("failed sends left %d outstanding", n)
	}
}

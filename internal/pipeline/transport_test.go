//lint:allow simtime live-transport tests: echo servers sleep to emulate real service time

package pipeline

import (
	"testing"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/cluster"
)

// echoServer is a trivial app.Server for exercising the live path.
type echoServer struct{ delay time.Duration }

func (s *echoServer) Name() string { return "echo" }
func (s *echoServer) Process(req app.Request) (app.Response, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return app.Response(req), nil
}
func (s *echoServer) Close() error { return nil }

// echoClient emits fixed one-byte requests.
type echoClient struct{}

func (echoClient) NextRequest() app.Request { return app.Request{0x7} }
func (echoClient) CheckResponse(req app.Request, resp app.Response) error {
	if len(resp) != len(req) {
		return app.ErrBadResponse
	}
	return nil
}

// echoTier builds one live tier over n replicas.
func echoTier(n int, delay time.Duration) TierConfig {
	servers := make([]app.Server, n)
	for i := range servers {
		servers[i] = &echoServer{delay: delay}
	}
	return TierConfig{
		App:       "echo",
		Policy:    cluster.PolicyLeastQueue,
		Servers:   servers,
		NewClient: func(seed int64) (app.Client, error) { return echoClient{}, nil },
		Validate:  true,
	}
}

// TestNetEdgePipeline drives a live two-tier pipeline whose edges both cross
// the networked transport, with fan-out and hedging in play: every root must
// resolve, the per-tier accounting must be whole, and the recorded latencies
// must carry the synthetic RTTs — one per hop tier-locally, accumulated
// along the critical path end to end. It doubles as the -race coverage for
// the networked fan-out path (completions dispatch downstream from
// connection-pool readers).
func TestNetEdgePipeline(t *testing.T) {
	const delay = time.Millisecond
	front := echoTier(2, 200*time.Microsecond)
	front.Transport = cluster.TransportNetworked
	front.NetDelay = delay
	shard := echoTier(3, 200*time.Microsecond)
	shard.Transport = cluster.TransportNetworked
	shard.NetDelay = delay
	shard.FanOut = 3
	shard.HedgeDelay = 20 * time.Millisecond

	res, err := Run(Config{
		Tiers:          []TierConfig{front, shard},
		QPS:            800,
		Requests:       400,
		WarmupRequests: 50,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 400 || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 400/0", res.Requests, res.Errors)
	}
	// Critical path: root -> front (one RTT) -> shard (one RTT). The
	// synthetic charge accumulates, so even the fastest root carries at
	// least both RTTs.
	if min := res.Sojourn.Min; min < 4*delay {
		t.Errorf("min end-to-end sojourn %v below the 2-hop synthetic charge %v", min, 4*delay)
	}
	if len(res.Tiers) != 2 {
		t.Fatalf("tiers = %d, want 2", len(res.Tiers))
	}
	for i, tier := range res.Tiers {
		if tier.Transport != cluster.TransportNetworked {
			t.Errorf("tier %d transport = %q, want networked", i, tier.Transport)
		}
		if tier.NetworkDelay != delay {
			t.Errorf("tier %d net delay = %v, want %v", i, tier.NetworkDelay, delay)
		}
		// Each tier-local sub-request pays its own edge's RTT.
		if tier.Sojourn.Min < 2*delay {
			t.Errorf("tier %d min sojourn %v below one synthetic RTT %v", i, tier.Sojourn.Min, 2*delay)
		}
		if len(tier.PerReplica) == 0 {
			t.Errorf("tier %d has no per-replica rows", i)
		}
		var dispatched uint64
		for _, rep := range tier.PerReplica {
			dispatched += rep.Dispatched
		}
		want := uint64(450) // tier 0: 450 roots
		if i == 1 {
			want = 3 * 450 // fan-out 3 per root, plus any hedges
		}
		if dispatched < want {
			t.Errorf("tier %d dispatched %d, want >= %d", i, dispatched, want)
		}
	}
}

// TestMixedEdgePipeline runs an in-process front end fanning out over a
// networked edge into the shard tier — the per-edge selection the transport
// refactor exists for. Only the networked hop's latencies carry the
// synthetic RTT.
func TestMixedEdgePipeline(t *testing.T) {
	const delay = 2 * time.Millisecond
	front := echoTier(1, 100*time.Microsecond)
	shard := echoTier(2, 100*time.Microsecond)
	shard.Transport = cluster.TransportNetworked
	shard.NetDelay = delay
	shard.FanOut = 2

	res, err := Run(Config{
		Tiers:          []TierConfig{front, shard},
		QPS:            500,
		Requests:       200,
		WarmupRequests: 30,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 200/0", res.Requests, res.Errors)
	}
	if got := res.Tiers[0].Transport; got != cluster.TransportInProcess {
		t.Errorf("front transport = %q, want inprocess", got)
	}
	if got := res.Tiers[1].Transport; got != cluster.TransportNetworked {
		t.Errorf("shard transport = %q, want networked", got)
	}
	// The in-process front end pays no synthetic delay; the shard hop does,
	// and the end-to-end critical path carries exactly that one charge.
	if res.Tiers[0].Sojourn.Min >= delay {
		t.Errorf("in-process tier min sojourn %v carries a synthetic charge", res.Tiers[0].Sojourn.Min)
	}
	if res.Tiers[1].Sojourn.Min < 2*delay {
		t.Errorf("networked tier min sojourn %v below one RTT %v", res.Tiers[1].Sojourn.Min, 2*delay)
	}
	if res.Sojourn.Min < 2*delay {
		t.Errorf("end-to-end min sojourn %v lost the networked hop's RTT", res.Sojourn.Min)
	}
}

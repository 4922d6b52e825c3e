//lint:allow simtime networked transport: connection draining and deadlines run on the wall clock by design

package cluster

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tailbench/internal/core"
	"tailbench/internal/netproto"
)

// DefaultNetDelay is the synthetic one-way NIC+switch delay of the networked
// transport when none is configured — the per-end overhead the paper
// measured on its tuned setup, matching the single-server networked mode.
const DefaultNetDelay = 25 * time.Microsecond

// netTransport realizes the loopback and networked configurations: every
// pool slot's application server sits behind its own NetServer on the
// loopback device, and the dispatch side — which keeps the balancer
// client-side — issues each request over the picked replica's connection
// pool. The server measures queue and service time and reports them (plus its
// queue depth) in the response header; the reader goroutines turn responses
// into completions — on a pipeline tier that includes fan-out into the next
// tier, so downstream hops originate from the reader. A positive delay is the
// synthetic one-way NIC/switch time the engine charges each request's
// sojourn (both directions, see Fleet.RTT), the networked kind's stand-in
// for a multi-machine deployment.
type netTransport[T any] struct {
	f     *Fleet[T]
	delay time.Duration // one-way; zero for loopback
	conns []int         // connections per replica pool, per slot

	// servers and addrs are per pool slot: the serving side exists for the
	// whole pool up front (warm standbys, mirroring the integrated path's
	// pre-built server pool), while connection pools are dialed per
	// provisioned member.
	servers []*core.NetServer
	addrs   []string

	// errMu guards fatal, the first transport-level failure (dial, send, a
	// lost replica); every later dispatch fails with it, which is how the
	// engine's dispatch path ends the run.
	errMu sync.Mutex
	fatal error

	nextID uint64 // dispatch side only
}

// startNetFleet starts one NetServer per pool slot over the fleet's
// application servers, wrapping slowed slots in slowServer so straggler
// factors inflate the server-measured service times shipped back in
// response headers. Each slot's worker pool is sized by its thread count
// (heterogeneous fleets run different counts per slot), and every server is
// instrumented under a <prefix><slot> instrument prefix (callers pick
// distinct prefixes so multi-fleet runs do not merge counters). It returns
// the net servers and their bound loopback addresses; on error, every
// already-started server is closed.
func startNetFleet[T any](f *Fleet[T]) ([]*core.NetServer, []string, error) {
	var servers []*core.NetServer
	var addrs []string
	for slot, server := range f.servers {
		if factor := f.cfg.slowdownFor(slot); factor > 1 {
			server = slowServer{inner: server, factor: factor}
		}
		ns := core.NewNetServer(server, f.cfg.threadsFor(slot))
		ns.SetMetrics(f.cfg.Metrics, fmt.Sprintf("%s%d", f.prefix, slot))
		addr, err := ns.Start("127.0.0.1:0")
		if err != nil {
			for _, s := range servers {
				s.Close()
			}
			return nil, nil, fmt.Errorf("cluster: starting replica %d net server: %w", slot, err)
		}
		servers = append(servers, ns)
		addrs = append(addrs, addr)
	}
	return servers, addrs, nil
}

// newNetTransport starts the per-slot server fleet and returns the
// transport. delay is the one-way synthetic network delay; zero means
// loopback.
func newNetTransport[T any](f *Fleet[T], delay time.Duration) (*netTransport[T], error) {
	servers, addrs, err := startNetFleet(f)
	if err != nil {
		return nil, err
	}
	conns := make([]int, len(f.servers))
	for slot := range conns {
		conns[slot] = ConnsPerReplica(f.cfg.threadsFor(slot))
	}
	return &netTransport[T]{
		f:       f,
		delay:   delay,
		conns:   conns,
		servers: servers,
		addrs:   addrs,
	}, nil
}

// ConnsPerReplica sizes a replica's connection pool: enough parallel
// connections that response serialization never bottlenecks the replica's
// worker threads, without an unbounded file-descriptor bill.
func ConnsPerReplica(threads int) int {
	c := 2 * threads
	if c < 2 {
		c = 2
	}
	if c > 8 {
		c = 8
	}
	return c
}

func (t *netTransport[T]) name() string {
	if t.delay > 0 {
		return TransportNetworked
	}
	return TransportLoopback
}

// fail records the first fatal transport error.
func (t *netTransport[T]) fail(err error) {
	t.errMu.Lock()
	if t.fatal == nil {
		t.fatal = err
	}
	t.errMu.Unlock()
}

func (t *netTransport[T]) err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.fatal
}

// provision dials the connection pool to the member's slot server. The
// callbacks close over the replica: completions re-enter the engine from the
// pool's reader goroutines.
func (t *netTransport[T]) provision(rep *Replica[T]) {
	rep.pending = make(map[uint64]request[T])
	pool, err := core.DialReplicaWatched(t.addrs[rep.member.Slot], t.conns[rep.member.Slot],
		func(msg *netproto.Message, at time.Time) { t.complete(rep, msg, at) },
		func(err error) { t.lost(rep, err) })
	if err != nil {
		t.fail(err)
		return
	}
	rep.pool = pool
}

// complete converts one response frame into a completion: the
// server-measured queue and service times come from the header, and the
// engine measures the sojourn client-side up to the frame's arrival (so
// dispatch and wire time count as latency). msg is the pool's decoder
// storage, valid only during the call: CheckResponse reads its payload
// here, and nothing keeps it.
func (t *netTransport[T]) complete(rep *Replica[T], msg *netproto.Message, at time.Time) {
	rep.pendMu.Lock()
	p, ok := rep.pending[msg.ID]
	if ok {
		delete(rep.pending, msg.ID)
	}
	rep.pendMu.Unlock()
	if !ok {
		return // stale or duplicate response
	}
	failed := msg.Type == netproto.TypeError
	if !failed && t.f.cfg.Validate {
		failed = t.f.client.CheckResponse(p.payload, msg.Payload) != nil
	}
	t.f.onDone(rep, p.tag, Completion{
		Queue:   time.Duration(msg.QueueNs),
		Service: time.Duration(msg.ServiceNs),
		Failed:  failed,
		Enqueue: p.enqueue,
		End:     at,
	})
}

// lost handles a connection the replica's pool lost mid-run (the replica
// died, or the link broke): the responses it owed will never arrive, so
// every pending request completes as failed through the normal completion
// path, and the run is failed with a diagnosis.
func (t *netTransport[T]) lost(rep *Replica[T], cause error) {
	rep.pendMu.Lock()
	orphans := rep.pending
	rep.pending = nil
	if !rep.down {
		// Only the first of the pool's connections to report finds anything
		// pending; fatal is set before down is visible, so a dispatch that
		// sees the replica down has an error to return.
		rep.down = true
		t.fail(fmt.Errorf("cluster: replica %d lost its connection with %d requests in flight: %w",
			rep.member.ID, len(orphans), cause))
	}
	rep.pendMu.Unlock()
	at := time.Now()
	for _, p := range orphans {
		t.f.onDone(rep, p.tag, Completion{Failed: true, Enqueue: p.enqueue, End: at})
	}
}

// load is the balancer's signal: the server's last reported queue depth plus
// the requests sent since that report — the freshest client-side estimate of
// the replica's true backlog, stale by one response flight. This staleness
// (absent on the in-process transport, whose counters are exact) is part of
// what networked-mode policy comparisons measure.
func (t *netTransport[T]) load(rep *Replica[T]) int {
	if rep.pool == nil {
		// A replica whose pool dial failed serves nothing: report it as
		// maximally loaded so queue-aware balancers avoid it rather than
		// being drawn to its phantom zero depth.
		return math.MaxInt
	}
	return rep.pool.EstimatedDepth()
}

// dispatch registers the request and sends it on the replica's pool.
func (t *netTransport[T]) dispatch(rep *Replica[T], p request[T]) error {
	if err := t.err(); err != nil {
		return err
	}
	if rep.pool == nil {
		return fmt.Errorf("cluster: replica %d has no connection pool (provisioning failed)", rep.member.ID)
	}
	id := t.nextID
	t.nextID++
	rep.pendMu.Lock()
	if rep.down {
		rep.pendMu.Unlock()
		return t.err()
	}
	rep.pending[id] = p
	rep.pendMu.Unlock()
	if err := rep.pool.Send(id, p.payload); err != nil {
		rep.pendMu.Lock()
		_, unanswered := rep.pending[id]
		delete(rep.pending, id)
		rep.pendMu.Unlock()
		if !unanswered {
			// lost already failed it through the completion path.
			return nil
		}
		t.fail(err)
		return err
	}
	return nil
}

// drain is membership-level for the networked transports: the balancer
// already stopped offering the replica, its in-flight responses still arrive
// over the open pool, and the pool itself closes at shutdown.
func (t *netTransport[T]) drain(*Replica[T]) {}

// outstanding sums the requests dispatched and not yet finished.
func (t *netTransport[T]) outstanding() int {
	n := 0
	for _, rep := range t.f.replicas {
		n += int(rep.outstanding.Load())
	}
	return n
}

// shutdown waits for every in-flight request to complete (bounded by
// deadline), then closes the connection pools and the per-slot net servers.
func (t *netTransport[T]) shutdown(deadline time.Time) error {
	for t.outstanding() > 0 && !time.Now().After(deadline) {
		core.Sleep(200 * time.Microsecond)
	}
	for _, rep := range t.f.replicas {
		if rep.pool != nil {
			rep.pool.Close()
		}
	}
	for _, ns := range t.servers {
		ns.Close()
	}
	if err := t.err(); err != nil {
		return err
	}
	if n := t.outstanding(); n > 0 {
		return fmt.Errorf("cluster: %s transport timed out with %d responses outstanding", t.name(), n)
	}
	return nil
}

//lint:allow simtime live replica runtime: workers, enqueue stamps, and straggler sleeps run on the wall clock by design

package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/core"
)

// Fleet is the live per-replica runtime — TailBench's one server-side
// harness (request queue, worker threads, per-request timestamps) with the
// transport swapped underneath it. It owns a pool of application servers,
// the replica set over them, the balancer, the optional control loop, each
// replica's serving runtime and accounting, and the transport that carries
// requests to replicas. Both live engines are thin callers of it: the
// cluster engine from its single dispatcher goroutine, each pipeline tier
// under its tier mutex.
//
// What differs between the engines reaches the fleet as the opaque
// per-request tag T and one completion callback. Dispatch and Ticks are not
// safe for concurrent use and take no lock of their own: the caller
// serialises them, and must have stopped calling both before Shutdown.
type Fleet[T any] struct {
	cfg     Config
	servers []app.Server
	prefix  string
	client  app.Client
	onDone  func(rep *Replica[T], tag T, c Completion)

	tr       transport[T]
	balancer Balancer
	loop     *ControlLoop
	set      *ReplicaSet
	replicas []*Replica[T] // indexed by member ID
	// candidates is the balancer snapshot buffer, reused across dispatches.
	candidates []Candidate
	workers    sync.WaitGroup

	// tickBuf holds completions for the control loop (autoscaled fleets
	// only); tickMu guards it against the per-tick harvest. Entries carry
	// their completion offset so a control tick can window exactly the
	// completions that finished at or before its instant, mirroring the
	// simulated engine.
	tickMu  sync.Mutex
	tickBuf []completion
}

// Replica is the runtime state of one live replica: its lifecycle record in
// the set, its accounting, and the transport-owned serving runtime (the
// bounded queue of the in-process transport, or the connection pool and
// pending map of the networked transports).
type Replica[T any] struct {
	fleet    *Fleet[T]
	member   *Member
	server   app.Server
	slowdown float64

	// queue and qClosed are the in-process transport's runtime (dispatch
	// side only).
	queue   chan request[T]
	qClosed bool

	// pool, pending, and pendMu are the networked transports' runtime: the
	// client-side connection pool to the replica's NetServer and the
	// requests awaiting responses on it. down (guarded by pendMu) is set
	// once the pool lost a connection: nothing more is registered, and what
	// was pending has been completed as failed.
	pool    *core.ReplicaConn
	pendMu  sync.Mutex
	pending map[uint64]request[T]
	down    bool

	outstanding atomic.Int64
	// lastDone is the offset (nanoseconds from run start) of the replica's
	// most recent completion, stored before outstanding is decremented so
	// that an observed zero outstanding count has an accurate idle instant.
	lastDone   atomic.Int64
	dispatched uint64 // dispatch side only
	depth      DepthAccum

	collector *core.Collector
}

// request is one request in flight at a replica: on its in-process queue, or
// in its pending map while the response crosses the wire.
type request[T any] struct {
	payload app.Request
	// enqueue is when the request entered the transport; the in-process
	// queue component is measured from it, matching core.Sample semantics.
	enqueue time.Time
	tag     T
}

// Completion is what the fleet measured for one finished request. Queue and
// Service are the worker-measured (in-process) or server-reported
// (networked) components; the engine derives the sojourn from its own time
// axis and the request's tag.
type Completion struct {
	Queue, Service time.Duration
	// Failed reports a processing error, a response that failed validation,
	// or a request lost with its replica's connection.
	Failed       bool
	Enqueue, End time.Time
}

// NewFleet validates the serving-side fields of cfg against the server pool
// (Policy, Seed, Threads, ThreadsPer, Slowdowns, QueueCap, Replicas,
// Autoscale, Transport, NetDelay, Validate, Metrics — the load and
// accounting fields are the engine's) and builds the fleet's control plane:
// balancer, control loop, and an empty replica set. cfg.Replicas must
// already be resolved; prefix names the per-slot net-server instruments.
// onDone is called once per dispatched request, from a worker goroutine
// (in-process) or a connection-pool reader (networked), possibly several
// concurrently per replica; it must call Finish on the replica it is handed.
// Nothing is serving until Serve.
func NewFleet[T any](servers []app.Server, cfg Config, prefix string, onDone func(rep *Replica[T], tag T, c Completion)) (*Fleet[T], error) {
	if len(servers) == 0 {
		return nil, ErrNoReplicas
	}
	if len(cfg.Slowdowns) != 0 && len(cfg.Slowdowns) != len(servers) {
		return nil, ErrSlowdownsLen
	}
	if len(cfg.ThreadsPer) != 0 && len(cfg.ThreadsPer) != len(servers) {
		return nil, ErrThreadsPerLen
	}
	if cfg.Replicas > len(servers) {
		return nil, fmt.Errorf("%w (%d > %d)", ErrReplicaCount, cfg.Replicas, len(servers))
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	balancer, err := NewBalancer(cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := &Fleet[T]{
		cfg:      cfg,
		servers:  servers,
		prefix:   prefix,
		onDone:   onDone,
		balancer: balancer,
		set:      NewReplicaSet(len(servers)),
	}
	if cfg.Autoscale != nil {
		f.loop, err = NewControlLoop(*cfg.Autoscale, cfg.Replicas, len(servers))
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Serve brings the serving side up: the transport (for the networked kinds,
// one NetServer per pool slot) and the initial replicas. client checks
// responses when the fleet validates.
func (f *Fleet[T]) Serve(client app.Client) error {
	f.client = client
	tr, err := newTransport(f)
	if err != nil {
		return err
	}
	f.tr = tr
	for r := 0; r < f.cfg.Replicas; r++ {
		f.provision(f.set.Provision(0, 0))
	}
	return nil
}

// Set returns the fleet's replica set (membership ledger).
func (f *Fleet[T]) Set() *ReplicaSet { return f.set }

// Loop returns the fleet's control loop, nil for a fixed fleet.
func (f *Fleet[T]) Loop() *ControlLoop { return f.loop }

// TransportName returns the kind name of the serving transport.
func (f *Fleet[T]) TransportName() string { return f.tr.name() }

// RTT is the synthetic round trip the engine charges each request's recorded
// sojourn: twice the one-way delay on the networked transport, else zero.
func (f *Fleet[T]) RTT() time.Duration {
	if nt, ok := f.tr.(*netTransport[T]); ok {
		return 2 * nt.delay
	}
	return 0
}

// provision builds the runtime replica for a newly provisioned member and
// hands it to the transport, which brings up its serving runtime (worker
// pool, or connection pool to its net server).
func (f *Fleet[T]) provision(m *Member) {
	rep := &Replica[T]{
		fleet:     f,
		member:    m,
		server:    f.servers[m.Slot],
		slowdown:  f.cfg.slowdownFor(m.Slot),
		collector: core.NewCollector(false),
	}
	f.replicas = append(f.replicas, rep)
	f.tr.provision(rep)
}

// drain tells the transport to stop feeding a draining member: it has
// already left the routable set, so its accepted work finishes and the
// replica retires once its outstanding count reaches zero (observed at the
// next control tick, or at shutdown).
func (f *Fleet[T]) drain(m *Member) {
	f.tr.drain(f.replicas[m.ID])
}

// Dispatch routes one request: run any due control ticks, snapshot the
// active replicas with the transport's load signal, let the balancer pick,
// and hand the request to the transport. now is the dispatch instant on the
// engine's run clock. Blocking in the transport is backpressure. On error
// the request was not accepted and onDone will not be called for it.
func (f *Fleet[T]) Dispatch(now time.Duration, payload app.Request, tag T) error {
	if f.loop != nil {
		f.Ticks(now)
		// Cold-started replicas whose activation instant has passed join the
		// routable set just before the snapshot, mirroring the virtual-time
		// engine's advance-then-snapshot order.
		f.set.ActivateDue(now)
	}
	f.candidates = f.candidates[:0]
	for _, id := range f.set.ActiveIDs() {
		f.candidates = append(f.candidates, Candidate{ID: id, Outstanding: f.tr.load(f.replicas[id])})
	}
	pick := f.balancer.Pick(f.candidates)
	rep := f.replicas[pick]
	rep.depth.Observe(outstandingOf(f.candidates, pick))
	rep.dispatched++
	rep.outstanding.Add(1)
	if err := f.tr.dispatch(rep, request[T]{payload: payload, enqueue: time.Now(), tag: tag}); err != nil {
		rep.outstanding.Add(-1)
		return err
	}
	return nil
}

// outstandingOf returns the outstanding count the snapshot recorded for the
// picked replica, so depth accounting sees exactly what the balancer saw.
func outstandingOf(candidates []Candidate, id int) int {
	for _, c := range candidates {
		if c.ID == id {
			return c.Outstanding
		}
	}
	return 0
}

// retireDrained retires every draining replica that has gone idle, at its
// last completion instant.
func (f *Fleet[T]) retireDrained() {
	for _, m := range f.set.Members() {
		if m.State == StateDraining && f.replicas[m.ID].outstanding.Load() == 0 {
			f.set.Retire(m.ID, time.Duration(f.replicas[m.ID].lastDone.Load()))
		}
	}
}

// Ticks runs every control tick due at or before now: observe the fleet, ask
// the controller for a target, and provision or drain toward it. Dispatch
// calls it, so a dispatcher-driven engine's cadence is bounded by arrival
// spacing; a long quiet gap replays the missed ticks in order, which lets
// depth-based scale-down proceed during lulls. An engine may also drive it
// from a ticker. The fleet must be autoscaled.
func (f *Fleet[T]) Ticks(now time.Duration) {
	for f.loop.Due(now) {
		at := f.loop.Begin()
		f.set.ActivateDue(at)
		f.retireDrained()
		outstanding := 0
		for _, id := range f.set.ActiveIDs() {
			outstanding += int(f.replicas[id].outstanding.Load())
		}
		target := f.loop.Decide(Observe(at, f.set, outstanding, f.takeCompletions(at)))
		f.loop.Apply(f.set, target, at, f.provision, f.drain,
			func(id int) int { return int(f.replicas[id].outstanding.Load()) })
	}
}

// takeCompletions removes and returns the sojourns of buffered completions
// that finished at or before the tick instant, leaving later ones for
// subsequent ticks. This keeps each control tick's latency window bounded
// by its own interval even when several overdue ticks replay after a
// dispatch gap — the same per-interval view the simulated engine pops off
// its completion heap, so the two paths feed controllers structurally
// identical observations.
func (f *Fleet[T]) takeCompletions(at time.Duration) []time.Duration {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	var taken []time.Duration
	kept := f.tickBuf[:0]
	for _, c := range f.tickBuf {
		if c.finish <= at {
			taken = append(taken, c.sojourn)
		} else {
			kept = append(kept, c)
		}
	}
	f.tickBuf = kept
	return taken
}

// work drains one replica's queue on one worker goroutine (the in-process
// transport's serving runtime).
func (f *Fleet[T]) work(rep *Replica[T]) {
	defer f.workers.Done()
	for p := range rep.queue {
		start := time.Now()
		resp, perr := rep.server.Process(p.payload)
		if rep.slowdown > 1 {
			// Straggler injection: inflate the effective service time by
			// holding the worker (and therefore the replica's capacity) for
			// the extra duration.
			core.Sleep(time.Duration((rep.slowdown - 1) * float64(time.Since(start))))
		}
		end := time.Now()
		failed := perr != nil
		if !failed && f.cfg.Validate {
			failed = f.client.CheckResponse(p.payload, resp) != nil
		}
		f.onDone(rep, p.tag, Completion{
			Queue:   start.Sub(p.enqueue),
			Service: end.Sub(start),
			Failed:  failed,
			Enqueue: p.enqueue,
			End:     end,
		})
	}
}

// ID returns the replica's stable member ID.
func (r *Replica[T]) ID() int { return r.member.ID }

// Finish closes one request at the replica, whichever transport carried it:
// the replica's last-completion instant and outstanding count, its
// collector, and (on an autoscaled fleet) the control loop's tick buffer.
// done is the completion's offset on the engine's run clock.
func (r *Replica[T]) Finish(sample core.Sample, done time.Duration) {
	// Max-store: with several workers the last finisher is not necessarily
	// the last storer, and retirement instants must be the true latest
	// completion.
	for {
		prev := r.lastDone.Load()
		if done.Nanoseconds() <= prev || r.lastDone.CompareAndSwap(prev, done.Nanoseconds()) {
			break
		}
	}
	r.outstanding.Add(-1)
	r.collector.Record(sample)
	if f := r.fleet; f.loop != nil {
		f.tickMu.Lock()
		f.tickBuf = append(f.tickBuf, completion{finish: done, sojourn: sample.Sojourn})
		f.tickMu.Unlock()
	}
}

// Shutdown runs after the engine's last Dispatch and Ticks: it waits for
// in-flight work to finish (the networked transports bounded by deadline),
// tears the serving runtimes down, and retires the replicas still draining
// at their last completion instants so lifetime spans are accurate. It
// returns only once no more completions will arrive, with an error when a
// replica was lost or the deadline cut the drain short.
func (f *Fleet[T]) Shutdown(deadline time.Time) error {
	err := f.tr.shutdown(deadline)
	for _, m := range f.set.Members() {
		if m.State == StateDraining {
			f.set.Retire(m.ID, time.Duration(f.replicas[m.ID].lastDone.Load()))
		}
	}
	return err
}

// Rows builds the per-replica result rows, one per member ever provisioned.
// end closes the lifetime span of replicas still provisioned; elapsed is the
// run-wide measurement interval the per-replica rates are taken over, so
// they sum to the aggregate rate.
func (f *Fleet[T]) Rows(end, elapsed time.Duration) []ReplicaStats {
	var rows []ReplicaStats
	for _, rep := range f.replicas {
		rs := rep.collector.Summary()
		achieved := 0.0
		if elapsed > 0 {
			achieved = float64(rs.Count) / elapsed.Seconds()
		}
		rows = append(rows, replicaStats(rep.member, end, ReplicaStats{
			Index:          rep.member.ID,
			Threads:        f.cfg.threadsFor(rep.member.Slot),
			Slowdown:       rep.slowdown,
			Dispatched:     rep.dispatched,
			Requests:       rs.Count,
			Errors:         rs.Errors,
			AchievedQPS:    achieved,
			Queue:          rs.Queue,
			Service:        rs.Service,
			Sojourn:        rs.Sojourn,
			MeanQueueDepth: rep.depth.Mean(),
			MaxQueueDepth:  rep.depth.Max(),
		}))
	}
	return rows
}

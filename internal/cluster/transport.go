//lint:allow simtime live transport seam: straggler slowdowns stretch real service time on the wall clock

package cluster

import (
	"fmt"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/core"
)

// Transport kind names accepted by Config.Transport. The transport decides
// how a dispatched request reaches the replica the balancer picked — the
// balancer itself always runs client-side, in the dispatcher — and how the
// completion flows back into the engine's accounting.
const (
	// TransportInProcess hands requests to per-replica worker pools over
	// bounded in-process queues — the integrated configuration, and the
	// default. Byte-for-byte the pre-Transport dispatch path.
	TransportInProcess = "inprocess"
	// TransportLoopback puts each replica behind its own NetServer on the
	// loopback device and issues requests over per-replica connection
	// pools, capturing network-stack costs without propagation delay.
	TransportLoopback = "loopback"
	// TransportNetworked is loopback plus the synthetic one-way NIC/switch
	// delay applied to each hop's sojourn, standing in for a multi-machine
	// deployment.
	TransportNetworked = "networked"
)

// Transports returns the built-in transport kind names in presentation
// order.
func Transports() []string {
	return []string{TransportInProcess, TransportLoopback, TransportNetworked}
}

// transport abstracts the serving side of a Fleet: how a replica's runtime
// is brought up when the member is provisioned, how a dispatched request
// reaches it, which load signal the balancer sees for it, and how everything
// is torn down once the last request has been issued. Completions re-enter
// the engine through the fleet's completion callback regardless of
// transport, so per-replica accounting, windowed collection, and the
// autoscaler's tick buffer behave identically on every path. It is the only
// transport seam in the tree: the cluster engine and every pipeline tier
// reach their replicas through it.
type transport[T any] interface {
	// name returns the transport kind name.
	name() string
	// provision brings up the serving runtime for a newly provisioned
	// member's replica (start its worker pool, or dial its connection
	// pool). Errors are deferred to the next dispatch: the engine is
	// mid-run and surfaces them through its dispatch path.
	provision(rep *Replica[T])
	// load returns the outstanding-count signal the balancer's candidate
	// snapshot carries for the replica.
	load(rep *Replica[T]) int
	// dispatch issues one request to the replica. Blocking here is
	// backpressure: sojourn time is measured from the scheduled arrival
	// instant, so a stalled dispatcher shows up as latency.
	dispatch(rep *Replica[T], p request[T]) error
	// drain stops routing new work to the replica; work it has accepted
	// still completes and the member retires when its outstanding count
	// reaches zero.
	drain(rep *Replica[T])
	// shutdown runs after the last dispatch: it waits for in-flight work to
	// finish (bounded by deadline) and tears the serving runtimes down. It
	// returns an error when a replica was lost or the deadline cut the
	// drain short.
	shutdown(deadline time.Time) error
}

// newTransport resolves the fleet's transport kind name and brings the
// transport up.
func newTransport[T any](f *Fleet[T]) (transport[T], error) {
	switch f.cfg.Transport {
	case "", TransportInProcess:
		return &inProcessTransport[T]{f: f}, nil
	case TransportLoopback:
		return newNetTransport(f, 0)
	case TransportNetworked:
		delay := f.cfg.NetDelay
		if delay <= 0 {
			delay = DefaultNetDelay
		}
		return newNetTransport(f, delay)
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q (available: %v)", f.cfg.Transport, Transports())
	}
}

// inProcessTransport is the integrated path: each replica owns a bounded
// queue drained by its slot's worker goroutines in this process.
type inProcessTransport[T any] struct {
	f *Fleet[T]
}

func (t *inProcessTransport[T]) name() string { return TransportInProcess }

func (t *inProcessTransport[T]) provision(rep *Replica[T]) {
	rep.queue = make(chan request[T], t.f.cfg.QueueCap)
	for w := 0; w < t.f.cfg.threadsFor(rep.member.Slot); w++ {
		t.f.workers.Add(1)
		go t.f.work(rep)
	}
}

func (t *inProcessTransport[T]) load(rep *Replica[T]) int {
	return int(rep.outstanding.Load())
}

func (t *inProcessTransport[T]) dispatch(rep *Replica[T], p request[T]) error {
	rep.queue <- p
	return nil
}

// drain closes a draining member's queue once: the dispatch side is the only
// sender and has already removed the replica from the routable set, so its
// workers finish the backlog and exit. The fleet's caller serialises
// dispatch, ticks and shutdown, so a plain flag suffices.
func (t *inProcessTransport[T]) drain(rep *Replica[T]) {
	if !rep.qClosed {
		close(rep.queue)
		rep.qClosed = true
	}
}

func (t *inProcessTransport[T]) shutdown(time.Time) error {
	// Close every queue not already closed by a drain (active replicas, and
	// replicas still cold-starting at run end that never joined the
	// routable set), then wait for the workers to finish the backlog.
	for _, rep := range t.f.replicas {
		t.drain(rep)
	}
	t.f.workers.Wait()
	return nil
}

// slowServer wraps an application server so every Process call's service
// time is inflated by a constant factor, holding the caller (a NetServer
// worker thread) — and therefore the replica's capacity — for the extra
// duration. It is how the networked transports realize per-slot straggler
// injection server-side, so the inflation shows up in the server-measured
// ServiceNs exactly as the in-process worker's sleep does.
type slowServer struct {
	inner  app.Server
	factor float64
}

func (s slowServer) Name() string { return s.inner.Name() }

func (s slowServer) Process(req app.Request) (app.Response, error) {
	start := time.Now()
	resp, err := s.inner.Process(req)
	core.Sleep(time.Duration((s.factor - 1) * float64(time.Since(start))))
	return resp, err
}

// Close is a no-op: the wrapped server is owned by the fleet's caller, which
// closes it directly.
func (s slowServer) Close() error { return nil }

package core

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tailbench/internal/netproto"
)

// ReplicaConn is a client-side connection pool to one replica's NetServer.
// It owns a fixed set of TCP connections, spreads framed request sends over
// them round-robin, and runs one reader goroutine per connection that hands
// every response (with the server-measured queue/service times and queue
// depth from the netproto header) to a caller-supplied callback. It
// generalizes the per-connection send/receive loop of RunNetworked into the
// reusable building block the networked cluster and pipeline transports
// dispatch through: one pool per replica, with the balancer deciding
// client-side which replica's pool a request is issued on.
//
// Alongside the wire plumbing the pool maintains the two client-side load
// signals a balancer can steer by: Outstanding (requests sent and not yet
// answered — exact from the client's vantage point, but blind to the
// response still in flight) and EstimatedDepth (the last server-reported
// depth plus the requests sent since that report — the freshest view of the
// server's actual queue a client can hold, stale by one response flight).
type ReplicaConn struct {
	conns []*replicaConnHalf

	next        atomic.Uint64 // round-robin send cursor
	outstanding atomic.Int64
	est         depthEstimate

	onResponse func(msg *netproto.Message, at time.Time)
	onLost     func(err error)
	readers    sync.WaitGroup
	closed     atomic.Bool
}

// replicaConnHalf is one TCP connection of the pool: senders write through
// its outbox, and the pool's reader goroutine for it decodes responses.
type replicaConnHalf struct {
	conn net.Conn
	out  *netproto.Outbox
}

// depthEstimate is the client's view of a replica's depth in one atomic
// word: the server's most recent reported depth in the high 32 bits, the
// requests sent since that report landed in the low 32. One word is what
// keeps a send racing a report from being half-counted: a send ordered
// before the report is erased by it, and one ordered after it is counted.
// (Only 2^32 sends without a single report would carry into the depth.)
type depthEstimate struct{ v atomic.Uint64 }

// sent counts one request sent since the last report.
func (e *depthEstimate) sent() { e.v.Add(1) }

// reported replaces the estimate by a fresh server report.
func (e *depthEstimate) reported(depth uint32) { e.v.Store(uint64(depth) << 32) }

// value is the reported depth plus the requests sent since.
func (e *depthEstimate) value() int {
	v := e.v.Load()
	return int(v>>32) + int(uint32(v))
}

// DialReplica opens conns TCP connections to a replica's NetServer and
// starts their readers. onResponse is invoked from a reader goroutine for
// every response or error frame, after the pool's load signals have been
// updated; it must not block for long (it is on the latency path of every
// completion on that connection). The message, and its Payload above all,
// belong to the connection's decoder and are valid only for the duration of
// the call: a callback that keeps the payload copies it.
func DialReplica(addr string, conns int, onResponse func(msg *netproto.Message, at time.Time)) (*ReplicaConn, error) {
	return DialReplicaWatched(addr, conns, onResponse, nil)
}

// DialReplicaWatched is DialReplica with a loss report: onLost, when
// non-nil, is invoked from the reader goroutine of every connection whose
// read fails before Close was called — the replica died or the connection
// broke, and responses still owed on it will never arrive.
func DialReplicaWatched(addr string, conns int, onResponse func(msg *netproto.Message, at time.Time), onLost func(err error)) (*ReplicaConn, error) {
	if conns <= 0 {
		conns = 1
	}
	rc := &ReplicaConn{onResponse: onResponse, onLost: onLost}
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			rc.Close()
			return nil, fmt.Errorf("core: replica dial %s: %w", addr, err)
		}
		half := &replicaConnHalf{conn: conn, out: netproto.NewOutbox(conn)}
		rc.conns = append(rc.conns, half)
		rc.readers.Add(1)
		go rc.read(half)
	}
	return rc, nil
}

// read consumes responses from one connection until it closes, reporting a
// close the pool did not ask for.
func (rc *ReplicaConn) read(half *replicaConnHalf) {
	defer rc.readers.Done()
	dec := netproto.NewDecoder(half.conn)
	for {
		msg, err := dec.Next()
		if err != nil {
			if rc.onLost != nil && !rc.closed.Load() {
				rc.onLost(err)
			}
			return
		}
		if msg.Type != netproto.TypeResponse && msg.Type != netproto.TypeError {
			continue
		}
		now := time.Now()
		rc.outstanding.Add(-1)
		// A fresh server report supersedes the client's running estimate.
		// (With several connections, reports can land slightly out of order;
		// that reordering is within the estimate's stale-by-one-flight
		// contract.)
		rc.est.reported(msg.Depth)
		if rc.onResponse != nil {
			rc.onResponse(msg, now)
		}
	}
}

// Send issues one request frame on the pool's next connection. A request
// sent to an idle pool (nothing outstanding) is written by the caller; one
// sent while others are outstanding is queued and leaves with its
// connection's next batch. Send copies payload, and it waits while the
// connection's queue is full. After Close it returns an error.
func (rc *ReplicaConn) Send(id uint64, payload []byte) error {
	half := rc.conns[rc.next.Add(1)%uint64(len(rc.conns))]
	idle := rc.outstanding.Add(1) == 1
	rc.est.sent()
	err := half.out.Send(&netproto.Message{Type: netproto.TypeRequest, ID: id, Payload: payload}, idle)
	if err != nil {
		rc.outstanding.Add(-1)
		return fmt.Errorf("core: replica send: %w", err)
	}
	return nil
}

// Outstanding returns the client-side in-flight count: requests sent on this
// pool that have not been answered yet.
func (rc *ReplicaConn) Outstanding() int { return int(rc.outstanding.Load()) }

// EstimatedDepth returns the client's estimate of the server's outstanding
// count: the depth the server reported in its most recent response header,
// plus the requests this client has sent since that report landed. Between
// responses the estimate ages — that staleness is a real property of
// client-side balancing over a network, and exactly the signal degradation
// networked-mode policy studies exist to measure.
func (rc *ReplicaConn) EstimatedDepth() int { return rc.est.value() }

// Close writes what every connection has queued, then a shutdown frame,
// closes the connections, and waits for the readers to exit. Responses
// still in flight when Close is called are lost; callers drain Outstanding
// to zero first when they care.
func (rc *ReplicaConn) Close() error {
	if !rc.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, half := range rc.conns {
		_ = half.out.Send(&netproto.Message{Type: netproto.TypeShutdown}, false)
		half.out.Close()
		half.conn.Close()
	}
	rc.readers.Wait()
	return nil
}

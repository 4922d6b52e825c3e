package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/metrics"
	"tailbench/internal/netproto"
)

// NetServer serves an application over TCP for the loopback and networked
// harness configurations. Incoming requests from all connections funnel into
// a single shared request queue consumed by the configured number of worker
// threads, matching the structure in Fig. 1: the request queue measures both
// queuing time and service time and ships them back to the client-side
// statistics collector in the response header.
type NetServer struct {
	app     app.Server
	threads int

	ln    net.Listener
	queue chan netPending

	// outstanding counts requests accepted but not yet responded to
	// (queued plus in service); every response header reports it so
	// client-side balancers can steer by server-observed depth.
	outstanding atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	acceptors sync.WaitGroup
	workers   sync.WaitGroup

	// met carries the server's live instruments when SetMetrics installed a
	// registry; nil keeps the serving path untouched.
	met *serverMetrics
}

// serverMetrics holds the instrument handles a NetServer updates; resolved
// once in SetMetrics so the per-request cost is a few atomic operations.
type serverMetrics struct {
	requests *metrics.Counter
	errors   *metrics.Counter
	depth    *metrics.Gauge
	queue    *metrics.Histogram
	service  *metrics.Histogram
}

// SetMetrics instruments the server against a shared registry under the
// given name prefix (e.g. "server" yields server_requests, server_errors,
// server_depth, server_queue, server_service). Call before Start; passing a
// nil registry leaves the server uninstrumented. Serving the registry over
// HTTP is the caller's concern (see metrics.Serve) — the framed-TCP listener
// stays protocol-pure.
func (s *NetServer) SetMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	if prefix == "" {
		prefix = "server"
	}
	s.met = &serverMetrics{
		requests: reg.Counter(prefix + "_requests"),
		errors:   reg.Counter(prefix + "_errors"),
		depth:    reg.Gauge(prefix + "_depth"),
		queue:    reg.Histogram(prefix + "_queue"),
		service:  reg.Histogram(prefix + "_service"),
	}
}

// netPending is one request waiting in the server-side queue.
type netPending struct {
	conn    *serverConn
	id      uint64
	payload []byte
	enqueue time.Time
}

// serverConn is the response side of one connection: worker threads send
// through its outbox, which writes a response through when the server has
// nothing else queued and batches responses when it does.
type serverConn struct {
	out *netproto.Outbox
}

// NewNetServer wraps an application server with the TCP front end.
// threads is the number of worker threads draining the request queue.
func NewNetServer(application app.Server, threads int) *NetServer {
	if threads <= 0 {
		threads = 1
	}
	return &NetServer{
		app:     application,
		threads: threads,
		queue:   make(chan netPending, 65536),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Start begins listening on addr (e.g. "127.0.0.1:0") and launches the
// worker threads. It returns the bound address, which callers use when addr
// requested an ephemeral port.
func (s *NetServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("core: netserver listen: %w", err)
	}
	s.ln = ln
	for i := 0; i < s.threads; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.acceptors.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Addr returns the listener address, or "" before Start.
func (s *NetServer) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *NetServer) acceptLoop() {
	defer s.acceptors.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.acceptors.Add(1)
		go s.readLoop(conn)
	}
}

// readLoop reads framed requests from one connection and enqueues them.
func (s *NetServer) readLoop(conn net.Conn) {
	defer s.acceptors.Done()
	sc := &serverConn{out: netproto.NewOutbox(conn)}
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		sc.out.Close()
		conn.Close()
	}()
	dec := netproto.NewDecoder(conn)
	for {
		msg, err := dec.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				// Protocol error: drop the connection.
				return
			}
			return
		}
		switch msg.Type {
		case netproto.TypeRequest:
			// The payload goes to a worker and may outlive the next frame
			// (an echo returns it as its response), so it leaves the
			// decoder's buffer as a copy.
			payload := bytes.Clone(msg.Payload)
			s.outstanding.Add(1)
			s.queue <- netPending{conn: sc, id: msg.ID, payload: payload, enqueue: time.Now()}
		case netproto.TypeShutdown:
			return
		default:
			// Ignore unexpected frame types from clients.
		}
	}
}

// worker drains the request queue, processes requests on this goroutine
// (one harness "worker thread"), and writes responses back.
func (s *NetServer) worker() {
	defer s.workers.Done()
	for p := range s.queue {
		start := time.Now()
		resp, err := s.app.Process(p.payload)
		end := time.Now()
		// Sample the depth after this request leaves it: the count the
		// client's view converges to once the response lands.
		depth := s.outstanding.Add(-1)
		if depth < 0 {
			depth = 0
		}
		if s.met != nil {
			s.met.requests.Inc()
			if err != nil {
				s.met.errors.Inc()
			}
			s.met.depth.Set(depth)
			s.met.queue.Observe(start.Sub(p.enqueue))
			s.met.service.Observe(end.Sub(start))
		}
		msg := &netproto.Message{
			ID:        p.id,
			QueueNs:   start.Sub(p.enqueue).Nanoseconds(),
			ServiceNs: end.Sub(start).Nanoseconds(),
			Depth:     uint32(depth),
		}
		if err != nil {
			msg.Type = netproto.TypeError
			msg.Payload = []byte(err.Error())
		} else {
			msg.Type = netproto.TypeResponse
			msg.Payload = resp
		}
		// With nothing left in the server, the response is written at
		// once; otherwise it joins its connection's next batch. A write
		// failure means the client went away; nothing to do.
		_ = p.conn.out.Send(msg, depth == 0)
	}
}

// Close stops accepting connections, drains in-flight work, and shuts the
// worker threads down. The wrapped application is not closed; the caller
// owns it.
func (s *NetServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.acceptors.Wait()
	close(s.queue)
	s.workers.Wait()
	return err
}

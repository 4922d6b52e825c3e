package netproto

import (
	"errors"
	"io"
	"sync"
)

// outboxLimit is the number of queued bytes at which Send waits for the
// connection's writer to catch up: blocking in the transport is
// backpressure, and it bounds what a stalled peer can make a sender buffer.
const outboxLimit = 256 << 10

// ErrClosed is what Send returns after Close.
var ErrClosed = errors.New("netproto: outbox closed")

// Outbox is the write side of one connection. A frame sent while the
// connection is idle is written at once by the sender (write-through): a
// lone request pays one write and no goroutine hop. A frame sent while the
// connection is busy is appended to a queue that the connection's writer
// goroutine empties with one write per batch, so under load the wire costs
// one system call per batch instead of one per frame.
//
// The idle test is the caller's, because only the caller knows whether more
// frames are coming: nothing outstanding on a client pool, nothing left in
// the server's queue. Writing through whenever no write is in progress is
// not enough: with one dispatching goroutine there is then never a second
// writer to coalesce behind.
type Outbox struct {
	w io.Writer

	mu sync.Mutex
	// ready wakes the writer goroutine; space wakes senders waiting at
	// outboxLimit.
	ready, space sync.Cond
	// queued holds encoded frames not yet handed to a write. spare is the
	// buffer of whoever holds writing: the writer goroutine's batch, or a
	// write-through sender's one frame.
	queued, spare []byte
	writing       bool
	closed        bool
	// err is the first write error; every later send returns it.
	err  error
	done chan struct{}
}

// NewOutbox starts the writer goroutine of a connection writing to w.
func NewOutbox(w io.Writer) *Outbox {
	o := &Outbox{w: w, done: make(chan struct{})}
	o.ready.L, o.space.L = &o.mu, &o.mu
	go o.run()
	return o
}

// Send encodes m onto the connection: written through by the caller when
// idle holds and nothing is queued or being written, queued for the writer
// goroutine otherwise. It waits while outboxLimit bytes or more are queued. It
// returns an error after close and after a failed write; a queued frame's
// own write error surfaces on a later send.
func (o *Outbox) Send(m *Message, idle bool) error {
	o.mu.Lock()
	for len(o.queued) >= outboxLimit && !o.closed && o.err == nil {
		o.space.Wait()
	}
	if o.closed {
		o.mu.Unlock()
		return ErrClosed
	}
	if o.err != nil {
		err := o.err
		o.mu.Unlock()
		return err
	}
	if idle && !o.writing && len(o.queued) == 0 {
		o.writing = true
		o.mu.Unlock()
		buf, err := Append(o.spare[:0], m)
		var werr error
		if err == nil {
			_, werr = o.w.Write(buf)
			err = werr
		}
		o.mu.Lock()
		o.spare = buf
		o.finishWrite(werr)
		if len(o.queued) > 0 || o.closed {
			o.ready.Signal()
		}
		o.mu.Unlock()
		return err
	}
	wake := !o.writing && len(o.queued) == 0
	buf, err := Append(o.queued, m)
	o.queued = buf
	if err == nil && wake {
		o.ready.Signal()
	}
	o.mu.Unlock()
	return err
}

// finishWrite ends a write; o.mu is held. A write error is sticky, and what
// is still queued behind it is dropped: the connection is broken.
func (o *Outbox) finishWrite(err error) {
	o.writing = false
	if err != nil && o.err == nil {
		o.err = err
		o.queued = o.queued[:0]
		o.space.Broadcast()
	}
}

// run is the writer goroutine: it writes whatever is queued in one write,
// until the outbox is closed and everything queued has been written.
func (o *Outbox) run() {
	defer close(o.done)
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if len(o.queued) > 0 && !o.writing {
			o.writing = true
			batch := o.queued
			o.queued = o.spare[:0]
			o.space.Broadcast()
			o.mu.Unlock()
			_, err := o.w.Write(batch)
			o.mu.Lock()
			o.spare = batch
			o.finishWrite(err)
			continue
		}
		if o.closed && !o.writing {
			return
		}
		o.ready.Wait()
	}
}

// Close stops the outbox: later sends fail, senders waiting at the limit
// are released, and Close returns once every frame queued before it has been
// written (or its write has failed). It is idempotent.
func (o *Outbox) Close() {
	o.mu.Lock()
	o.closed = true
	o.ready.Signal()
	o.space.Broadcast()
	o.mu.Unlock()
	<-o.done
}

package netproto

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedWriter counts the writes it receives and, while its gate is set,
// holds every write until the gate is closed.
type gatedWriter struct {
	mu     sync.Mutex
	data   bytes.Buffer
	writes int
	gate   chan struct{}
	// started receives one token per write entered; it is buffered beyond
	// any test's write count so that a write never waits on it.
	started chan struct{}
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{gate: make(chan struct{}), started: make(chan struct{}, 1<<16)}
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.started <- struct{}{}
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	w.data.Write(p)
	return len(p), nil
}

func (w *gatedWriter) result() ([]byte, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.data.Bytes()...), w.writes
}

// frame returns request i and its encoding.
func frame(t *testing.T, i int, size int) (*Message, []byte) {
	t.Helper()
	m := &Message{Type: TypeRequest, ID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, size)}
	b, err := Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return m, b
}

func TestOutboxBatchesBehindABlockedWrite(t *testing.T) {
	w := newGatedWriter()
	o := NewOutbox(w)
	const n = 100
	var want []byte
	for i := 0; i < n; i++ {
		m, b := frame(t, i, 16)
		want = append(want, b...)
		if err := o.Send(m, false); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-w.started // frame 0 is in a write the gate holds
		}
	}
	close(w.gate)
	o.Close()
	got, writes := w.result()
	if !bytes.Equal(got, want) {
		t.Fatalf("%d frames arrived as %d bytes, not byte-identical and in order", n, len(got))
	}
	if writes != 2 {
		t.Fatalf("%d frames queued behind a blocked write took %d writes, want 2", n, writes)
	}
}

func TestOutboxWritesThroughWhenIdle(t *testing.T) {
	w := newGatedWriter()
	close(w.gate)
	o := NewOutbox(w)
	defer o.Close()
	for i := 0; i < 3; i++ {
		m, b := frame(t, i, 8)
		if err := o.Send(m, true); err != nil {
			t.Fatal(err)
		}
		// Written before send returned, by the sender itself.
		if got, writes := w.result(); writes != i+1 || !bytes.HasSuffix(got, b) {
			t.Fatalf("send %d: %d writes after an idle send", i, writes)
		}
	}
}

func TestOutboxSendWaitsAtTheLimit(t *testing.T) {
	w := newGatedWriter()
	o := NewOutbox(w)
	const size = 1024
	_, one := frame(t, 0, size)
	// One frame goes to the held write; then sends queue until the queue
	// holds outboxLimit bytes, and the next one waits.
	fit := 1 + (outboxLimit+len(one)-1)/len(one)
	total := fit + 20
	var want []byte
	msgs := make([]*Message, total)
	for i := range msgs {
		var b []byte
		msgs[i], b = frame(t, i, size)
		want = append(want, b...)
	}
	if err := o.Send(msgs[0], false); err != nil {
		t.Fatal(err)
	}
	<-w.started
	var sent atomic.Int64
	sent.Store(1)
	done := make(chan error, 1)
	go func() {
		for _, m := range msgs[1:] {
			if err := o.Send(m, false); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()
	for deadline := time.Now().Add(10 * time.Second); sent.Load() < int64(fit); {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d sends went through before the limit", sent.Load(), fit)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := sent.Load(); n != int64(fit) {
		t.Fatalf("%d sends went through with the write held, want %d (the limit)", n, fit)
	}
	close(w.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	o.Close()
	if got, _ := w.result(); !bytes.Equal(got, want) {
		t.Fatalf("frames around the limit arrived as %d bytes, want %d in order", len(got), len(want))
	}
}

func TestOutboxSendAfterClose(t *testing.T) {
	w := newGatedWriter()
	close(w.gate)
	o := NewOutbox(w)
	o.Close()
	o.Close() // idempotent
	m, _ := frame(t, 1, 8)
	for _, idle := range []bool{true, false} {
		if err := o.Send(m, idle); !errors.Is(err, ErrClosed) {
			t.Fatalf("send(idle=%v) after close: %v, want ErrClosed", idle, err)
		}
	}
	if _, writes := w.result(); writes != 0 {
		t.Fatalf("%d writes after close", writes)
	}
}

func TestOutboxCloseFlushes(t *testing.T) {
	w := newGatedWriter()
	o := NewOutbox(w)
	var want []byte
	for i := 0; i < 10; i++ {
		m, b := frame(t, i, 32)
		want = append(want, b...)
		if err := o.Send(m, false); err != nil {
			t.Fatal(err)
		}
	}
	<-w.started
	closed := make(chan struct{})
	go func() {
		o.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("close returned with frames still queued behind a held write")
	case <-time.After(20 * time.Millisecond):
	}
	close(w.gate)
	<-closed
	if got, _ := w.result(); !bytes.Equal(got, want) {
		t.Fatalf("close flushed %d bytes, want %d in order", len(got), len(want))
	}
}

func TestOutboxConcurrentSendAndClose(t *testing.T) {
	w := newGatedWriter()
	close(w.gate)
	o := NewOutbox(w)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m, _ := frame(t, i, 8)
				if err := o.Send(m, i%2 == 0); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	o.Close()
	wg.Wait()
}

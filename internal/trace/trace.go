// Package trace records low-overhead per-request span trees for both harness
// engines: the live goroutine path and the deterministic virtual-time
// simulation. A span tree decomposes one root request's sojourn into the
// stages the paper's methodology cares about — queue wait, service, synthetic
// network RTT, fan-out children, hedge duplicates, and the fan-in wait on the
// slowest child — so a tail sample can be attributed to a cause instead of
// reported as a bare number.
//
// Everything lives on the run's time axis (offsets from the start of the run:
// scheduled-arrival offsets on the live path, virtual time in simulations),
// which is what makes the two engines' traces structurally identical and the
// simulated ones bit-reproducible at a fixed seed.
//
// Tracing disabled is a nil *Recorder: engines guard every recording site
// with a nil check, so the hot path allocates nothing.
package trace

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies a span.
type Kind uint8

// Span kinds.
const (
	// KindRoot is the synthetic span covering a root request from its
	// scheduled arrival to its fan-in resolution. Always span ID 0.
	KindRoot Kind = iota
	// KindRequest covers one node of the request tree (a sub-request sent to
	// one tier) from its dispatch to the resolution of its whole subtree.
	KindRequest
	// KindQueue is the time a served copy waited for a worker thread.
	KindQueue
	// KindService is the time a worker thread spent processing a copy.
	KindService
	// KindNet is the synthetic network RTT charged by a networked edge.
	KindNet
	// KindHedge wraps one copy of a hedged sub-request (the original or the
	// duplicate); its Dup/Winner flags say which copy it was and whether it
	// settled the node. Hedge losers are the only spans allowed to outlive
	// their parent request span — their capacity use is real even after the
	// race is lost.
	KindHedge
)

// String returns the kind name used in exports and reports.
func (k Kind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindRequest:
		return "request"
	case KindQueue:
		return "queue"
	case KindService:
		return "service"
	case KindNet:
		return "net"
	case KindHedge:
		return "hedge"
	default:
		return "unknown"
	}
}

// MarshalText encodes the kind by name so trace JSON is self-describing.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name, so saved results round-trip through
// `tailbench report -input`.
func (k *Kind) UnmarshalText(text []byte) error {
	for c := KindRoot; c <= KindHedge; c++ {
		if c.String() == string(text) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("trace: unknown span kind %q", text)
}

// Span is one node of a request's span tree. Spans form a tree through
// Parent indices into the owning Tree's flat span slice; IDs are assigned in
// recording order, which on the simulated path is the deterministic event
// order.
type Span struct {
	ID     int32
	Parent int32 // index of the parent span; -1 for the root
	Kind   Kind
	// Tier is the pipeline tier the span belongs to (0 for single clusters).
	Tier int
	// Replica is the stable ID of the replica that served the span (-1 when
	// not applicable or not yet settled).
	Replica int
	// Start and End are offsets on the run's time axis.
	Start time.Duration
	End   time.Duration
	// Dup marks the duplicate copy of a hedged sub-request; Winner marks the
	// copy that settled the node (hedge losers have neither... Dup without
	// Winner is a losing duplicate, Winner without Dup an original that won
	// the race).
	Dup    bool `json:",omitempty"`
	Winner bool `json:",omitempty"`
	// Err marks a failed span.
	Err bool `json:",omitempty"`
}

// Tree is one root request's span tree: a flat span slice linked by parent
// indices. The simulated engines append spans single-threaded in event order;
// the live engines append from worker and reader goroutines under the tree's
// mutex and sort at report time, so both paths converge on the same
// structure.
type Tree struct {
	mu sync.Mutex
	// At is the root's scheduled arrival offset.
	At    time.Duration
	Err   bool
	spans []Span

	// pooled marks a tree acquired from a Recorder's free list
	// (AcquireTree); only pooled trees are ever recycled. refs counts the
	// reservoirs currently retaining the tree, maintained under the
	// recorder's mutex.
	pooled bool
	refs   int32
}

// NewTree starts a span tree for a root request arriving at the given offset.
// The root span (ID 0) is open until Close is called on it.
func NewTree(at time.Duration) *Tree {
	t := &Tree{At: at}
	t.spans = append(t.spans, Span{ID: 0, Parent: -1, Kind: KindRoot, Replica: -1, Start: at, End: at})
	return t
}

// Request opens a KindRequest span for one node of the request tree and
// returns its ID. The replica is unknown until the node settles; Settle fills
// it in. The span's End stays at its Start until Close marks the subtree
// resolved.
func (t *Tree) Request(parent int32, tier int, start time.Duration) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Kind: KindRequest, Tier: tier, Replica: -1, Start: start, End: start})
	return id
}

// Net charges a synthetic network RTT at the front of a request span.
func (t *Tree) Net(req int32, start, rtt time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[req]
	t.spans = append(t.spans, Span{ID: int32(len(t.spans)), Parent: req, Kind: KindNet, Tier: sp.Tier, Replica: -1, Start: start, End: start + rtt})
}

// Attempt records one served copy of the request span req: its queue wait and
// service time ending at end on the run's time axis. When the node was hedged
// (two copies dispatched), the copy's spans are wrapped in a KindHedge span
// covering [start, end] with the copy's role flags; otherwise the queue and
// service spans hang directly off the request span. Hedge losers call this
// after the node settled — the only late addition a tree accepts.
func (t *Tree) Attempt(req int32, replica int, start, queue, service, end time.Duration, hedged, dup, winner, errFlag bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[req]
	tier := sp.Tier
	parent := req
	if hedged {
		id := int32(len(t.spans))
		t.spans = append(t.spans, Span{ID: id, Parent: req, Kind: KindHedge, Tier: tier, Replica: replica,
			Start: start, End: end, Dup: dup, Winner: winner, Err: errFlag})
		parent = id
	} else {
		dup, winner = false, false
	}
	qid := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: qid, Parent: parent, Kind: KindQueue, Tier: tier, Replica: replica,
		Start: end - service - queue, End: end - service, Dup: dup, Winner: winner})
	t.spans = append(t.spans, Span{ID: qid + 1, Parent: parent, Kind: KindService, Tier: tier, Replica: replica,
		Start: end - service, End: end, Dup: dup, Winner: winner, Err: errFlag})
}

// Settle records which replica's copy settled a request span and whether it
// failed.
func (t *Tree) Settle(req int32, replica int, errFlag bool) {
	t.mu.Lock()
	t.spans[req].Replica = replica
	if errFlag {
		t.spans[req].Err = true
		t.Err = true
	}
	t.mu.Unlock()
}

// Close marks a span's subtree resolved at the given offset: for a leaf
// request that is its own completion, for a fan-out request the completion of
// its slowest child, and for the root span (ID 0) the root's fan-in instant.
func (t *Tree) Close(id int32, end time.Duration) {
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// Spans returns a copy of the tree's spans sorted by (Start, ID) — the
// canonical order shared by reports and exports. The simulated path appends
// in an order already consistent with it; sorting makes the concurrent live
// path converge on the same layout.
func (t *Tree) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sortSpans(out)
	return out
}

func sortSpans(s []Span) {
	// Insertion sort: span slices are tiny (a few per node) and almost
	// sorted already, and a deterministic total order is what matters.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j].Start < s[j-1].Start || (s[j].Start == s[j-1].Start && s[j].ID < s[j-1].ID)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Recorder retains the top-K slowest span trees per window in a bounded
// reservoir, keeping tracing memory proportional to K·windows instead of the
// request count. A nil *Recorder is the disabled state: every method is a
// nil-safe no-op, and engines additionally guard tree construction so the
// disabled hot path allocates nothing.
type Recorder struct {
	topK  int
	width time.Duration // window width on the run's time axis; <=0: one window

	mu      sync.Mutex
	windows map[int]*reservoir
	global  reservoir
	roots   uint64
	errs    uint64

	// free holds pooled trees retained by no reservoir, ready for reuse by
	// AcquireTree. This is what caps the traced simulation's allocations:
	// span storage cycles through the free list instead of being rebuilt
	// for every measured request.
	free []*Tree
}

// DefaultTopK is the per-window reservoir size when the spec leaves it zero.
const DefaultTopK = 8

// NewRecorder builds a recorder retaining the topK slowest trees per window
// of the given width (non-positive width keeps a single whole-run window).
func NewRecorder(topK int, width time.Duration) *Recorder {
	if topK <= 0 {
		topK = DefaultTopK
	}
	r := &Recorder{topK: topK, width: width, windows: make(map[int]*reservoir)}
	r.global = reservoir{cap: topK, entries: make([]entry, 0, topK)}
	return r
}

// Width returns the recorder's window width (0 when windowing is off).
func (r *Recorder) Width() time.Duration {
	if r == nil {
		return 0
	}
	return r.width
}

// entry is one retained root.
type entry struct {
	tree    *Tree
	sojourn time.Duration
	seq     uint64
}

// reservoir keeps the K slowest entries, sorted slowest-first. Ties keep the
// earlier observation, so simulated runs (which observe roots in
// deterministic event order) retain a deterministic set.
type reservoir struct {
	cap     int
	entries []entry
}

// offer inserts e if it ranks among the cap slowest, reporting whether it
// was retained and which tree (if any) fell off the bottom — the hook the
// recorder's free list uses to reclaim span storage. The entries slice is
// preallocated to cap, so a full reservoir shifts in place and never
// allocates.
func (rv *reservoir) offer(e entry) (retained bool, evicted *Tree) {
	i := len(rv.entries)
	for i > 0 && rv.entries[i-1].sojourn < e.sojourn {
		i--
	}
	if i >= rv.cap {
		return false, nil
	}
	if len(rv.entries) < rv.cap {
		rv.entries = append(rv.entries, entry{})
	} else {
		evicted = rv.entries[len(rv.entries)-1].tree
	}
	copy(rv.entries[i+1:], rv.entries[i:])
	rv.entries[i] = e
	return true, evicted
}

// Observe offers a resolved root's tree to the reservoirs. The engines call
// it once per measured root, at fan-in resolution, with the same sojourn the
// statistics collector records.
func (r *Recorder) Observe(t *Tree, sojourn time.Duration) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.roots++
	if t.Err {
		r.errs++
	}
	e := entry{tree: t, sojourn: sojourn, seq: r.roots}
	r.global.cap = r.topK
	t.refs = 0
	retained, evicted := r.global.offer(e)
	if retained {
		t.refs++
	}
	r.release(evicted)
	w := 0
	if r.width > 0 {
		w = int(t.At / r.width)
	}
	rv := r.windows[w]
	if rv == nil {
		rv = &reservoir{cap: r.topK, entries: make([]entry, 0, r.topK)}
		r.windows[w] = rv
	}
	retained, evicted = rv.offer(e)
	if retained {
		t.refs++
	}
	r.release(evicted)
	if t.pooled && t.refs == 0 {
		r.free = append(r.free, t)
	}
}

// release drops one reservoir's claim on a previously observed tree,
// returning it to the free list once no reservoir retains it. Only pooled
// trees participate; live-path trees are left to the garbage collector.
// Callers hold r.mu.
func (r *Recorder) release(t *Tree) {
	if t == nil || !t.pooled {
		return
	}
	if t.refs--; t.refs == 0 {
		r.free = append(r.free, t)
	}
}

// AcquireTree returns a span tree rooted at the given arrival offset,
// reusing the span storage of a tree every reservoir has since evicted. It
// is the allocation-free counterpart of NewTree for callers that finish
// recording before handing the tree to Observe — both simulated engines and
// ObserveRequest qualify. The live pipeline path does not: it records hedge
// losers after the root resolves, the one late addition a tree accepts, so
// it must keep building trees with NewTree (recycling one could hand its
// spans to a different request first). A nil recorder falls back to NewTree.
func (r *Recorder) AcquireTree(at time.Duration) *Tree {
	if r == nil {
		return NewTree(at)
	}
	r.mu.Lock()
	var t *Tree
	if n := len(r.free); n > 0 {
		t = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	}
	r.mu.Unlock()
	if t == nil {
		t = &Tree{pooled: true}
	}
	t.At = at
	t.Err = false
	t.spans = append(t.spans[:0], Span{ID: 0, Parent: -1, Kind: KindRoot, Replica: -1, Start: at, End: at})
	return t
}

// ObserveRequest records a request with no fan-out (the single-server and
// cluster harnesses) as a flat four-or-five-span tree: root, request, an
// optional net RTT, queue, and service. It is the one-call shorthand for
// harnesses whose completion handler has the whole story at once.
func (r *Recorder) ObserveRequest(at, queue, service, sojourn, net time.Duration, tier, replica int, errFlag bool) {
	if r == nil {
		return
	}
	t := r.AcquireTree(at)
	req := t.Request(0, tier, at)
	end := at + sojourn
	if net > 0 {
		t.Net(req, at, net)
	}
	t.Attempt(req, replica, at+net, queue, service, end, false, false, true, errFlag)
	t.Settle(req, replica, errFlag)
	t.Close(req, end)
	t.Close(0, end)
	r.Observe(t, sojourn)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark from the
// outside. Parent is the ID of the span that caused it (0 for the root), so
// a layer's self time is its duration minus what its children cover.
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// Replayed marks a child that was not observed inside its parent but
	// timed afterwards on inputs of the same size (the sim decomposition).
	Replayed bool `json:"replayed,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends. It is
// used from the benchmark's main goroutine only.
type spanLog struct {
	workload string
	origin   time.Time
	spans    []Span
	stack    []int
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

// begin opens a span under the innermost open one and returns the function
// that closes it. A nil log records nothing, so untraced runs share the code.
func (l *spanLog) begin(name string) (end func()) {
	if l == nil {
		return func() {}
	}
	id := len(l.spans) + 1
	parent := 0
	if len(l.stack) > 0 {
		parent = l.stack[len(l.stack)-1]
	}
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Name: name, StartUs: us(time.Since(l.origin))})
	l.stack = append(l.stack, id)
	return func() {
		l.spans[id-1].EndUs = us(time.Since(l.origin))
		l.stack = l.stack[:len(l.stack)-1]
	}
}

// replay adds a child of the given span that lasted d, laid out from the
// parent's start after its earlier replayed children.
func (l *spanLog) replay(parent int, name string, d time.Duration) {
	if l == nil {
		return
	}
	at := l.spans[parent-1].StartUs
	for _, s := range l.spans {
		if s.Parent == parent && s.Replayed {
			at = s.EndUs
		}
	}
	l.spans = append(l.spans, Span{ID: len(l.spans) + 1, Parent: parent, Name: name, StartUs: at, EndUs: at + us(d), Replayed: true})
}

// last is the ID of the most recently opened span, 0 without a log.
func (l *spanLog) last() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// write stores the spans, and the program's own trace report when there is
// one, at bench/out/<workload>.trace.json under the checkout root.
func (l *spanLog) write(root string, program any) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
		Program  any    `json:"program_trace,omitempty"`
	}{l.workload, l.spans, program}, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, l.workload+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}

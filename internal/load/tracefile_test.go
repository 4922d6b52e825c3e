package load

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTraceFileFixture pins the file loader against the checked-in fixture:
// interval directive honored, comments stripped, commas/spaces/newlines all
// separating rates.
func TestTraceFileFixture(t *testing.T) {
	s, err := TraceFile("testdata/rates.csv", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Spec(), "trace:500ms,100,200,300,900,0"; got != want {
		t.Fatalf("Spec = %q, want %q", got, want)
	}
	// The shape replays the series: one rate per 500ms bin, final rate held.
	checks := []struct {
		at   time.Duration
		rate float64
	}{
		{0, 100}, {600 * time.Millisecond, 200}, {1100 * time.Millisecond, 300},
		{1600 * time.Millisecond, 900}, {2100 * time.Millisecond, 0}, {time.Hour, 0},
	}
	for _, c := range checks {
		if got := s.Rate(c.at); got != c.rate {
			t.Errorf("Rate(%v) = %v, want %v", c.at, got, c.rate)
		}
	}
}

// TestTraceFileIntervalOverride pins the precedence rule: an explicit caller
// interval beats the file's directive.
func TestTraceFileIntervalOverride(t *testing.T) {
	s, err := TraceFile("testdata/rates.csv", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s.Spec(), "trace:2s,") {
		t.Fatalf("caller interval lost: %q", s.Spec())
	}
}

// TestTraceFileDefaults covers a directive-free file: the loader falls back
// to DefaultTraceInterval.
func TestTraceFileDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.txt")
	if err := os.WriteFile(path, []byte("10\n20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := TraceFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Spec(), "trace:1s,10,20"; got != want {
		t.Fatalf("Spec = %q, want %q", got, want)
	}
}

// TestTraceFileErrors pins the loader's failure modes.
func TestTraceFileErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name, content, want string
	}{
		{"empty.txt", "# nothing\n", "holds no rates"},
		{"badrate.txt", "10\nbogus\n", "bad rate"},
		{"negrate.txt", "-5\n", "bad rate"},
		{"nanrate.txt", "10\nNaN\n", "bad rate"},
		{"infrate.txt", "+Inf\n", "bad rate"},
		{"badint.txt", "interval=fast\n10\n", "bad interval"},
		{"lateint.txt", "10\ninterval=1s\n", "must precede"},
	}
	for _, c := range cases {
		if _, err := TraceFile(write(c.name, c.content), 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	if _, err := TraceFile(filepath.Join(dir, "missing.txt"), 0); err == nil {
		t.Error("missing file accepted")
	}
}

// TestParseTraceFileForms pins the spec grammar's @file forms: trace:@path
// and trace:interval,@path, and that the loaded shape's Spec round-trips
// through the inline grammar without the file.
func TestParseTraceFileForms(t *testing.T) {
	s, err := Parse("trace:@testdata/rates.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Spec(), "trace:500ms,100,200,300,900,0"; got != want {
		t.Fatalf("trace:@file Spec = %q, want %q", got, want)
	}
	inline, err := Parse(s.Spec())
	if err != nil {
		t.Fatalf("Spec did not round-trip: %v", err)
	}
	if inline.Spec() != s.Spec() {
		t.Fatalf("round-trip changed the spec: %q vs %q", inline.Spec(), s.Spec())
	}

	s2, err := Parse("trace:250ms,@testdata/rates.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s2.Spec(), "trace:250ms,") {
		t.Fatalf("explicit interval lost: %q", s2.Spec())
	}

	if _, err := Parse("trace:bogus,@testdata/rates.csv"); err == nil {
		t.Error("bad interval with @file accepted")
	}
	if _, err := Parse("trace:@testdata/no-such-file.csv"); err == nil {
		t.Error("missing @file accepted")
	}
}

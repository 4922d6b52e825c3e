package core

import (
	"os"
	"testing"
	"time"
)

// TestSleepReusesTimers pins the timerfd pool: paced runs reuse timers
// instead of opening a file per request, and a sleep does not allocate.
func TestSleepReusesTimers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	openFDs := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(entries)
	}
	cfg := RunConfig{QPS: 2000, Threads: 1, Requests: 100, Seed: 29}
	run := func() {
		if _, err := RunIntegrated(&fakeServer{name: "echo"}, fakeFactory(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := openFDs()
	for i := 0; i < 20; i++ {
		run()
	}
	if grew := openFDs() - before; grew > 8 {
		t.Errorf("open files grew by %d across 20 paced runs, want <= 8", grew)
	}
	if allocs := testing.AllocsPerRun(100, func() { Sleep(time.Microsecond) }); allocs != 0 {
		t.Errorf("Sleep allocates %v times per call, want 0", allocs)
	}
}

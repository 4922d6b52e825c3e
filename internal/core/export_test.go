package core

import (
	"time"

	"tailbench/internal/app"
)

// NewFakeServer and FakeFactory hand the harness fakes to the external tests
// (package core_test), which drive NetServer through the one-replica cluster
// that package cluster builds on top of this one.
func NewFakeServer(name string, busyWork time.Duration, fail bool) app.Server {
	return &fakeServer{name: name, busyWork: busyWork, fail: fail}
}

var FakeFactory = fakeFactory

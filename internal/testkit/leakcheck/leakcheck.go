// Package leakcheck is the repository's goroutine-leak gate for tests. It
// lives apart from testkit so that binaries using testkit's demo data do
// not link the testing package.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakWait bounds how long Check waits for goroutines to drain before
// failing: servers, relays and clients shut down asynchronously, so a
// just-finished test legitimately has goroutines mid-exit.
const leakWait = 5 * time.Second

// Check is the repository's hand-rolled goroutine-leak gate (a
// dependency-free goleak): call it at the top of a test and it registers a
// cleanup that fails the test if goroutines running this repository's code
// are still alive shortly after the test body returns. A session whose
// reader never exits, a chaos relay pinned by a blackholed connection, or
// a client that abandoned a handshake all show up here.
//
// Detection is by stack content: a goroutine counts as ours when its stack
// (including its "created by" frame) mentions a repro/ package. Runtime,
// testing and third-party helper goroutines are ignored, so the check is
// immune to the test framework's own background machinery.
func Check(t testing.TB) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(leakWait)
		var leaked []string
		for {
			leaked = repoGoroutines()
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d goroutine(s) running repro code leaked past the test:\n\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// repoGoroutines returns the stacks of live goroutines (other than the
// caller's) that are executing, or were created by, this repository's code.
func repoGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	stacks := strings.Split(string(buf[:n]), "\n\n")
	var out []string
	// stacks[0] is the calling goroutine — the leak checker itself.
	for _, s := range stacks[1:] {
		if strings.Contains(s, "repro/internal/") || strings.Contains(s, "repro/cmd/") {
			out = append(out, strings.TrimSpace(s))
		}
	}
	return out
}

// Package cliutil holds small helpers shared by the command-line tools:
// the -circuit/-blif loader, the wall-clock watchdog and lpserverd's
// typed JSON access-log line.
package cliutil

import (
	"fmt"
	"io"
	"os"
	"time"
)

// Test seams: the watchdog's only observable effect is killing the
// process, so tests swap these out to assert firing without dying.
var (
	watchdogStderr io.Writer      = os.Stderr
	watchdogExit   func(code int) = os.Exit
)

// Watchdog arms a hard wall-clock backstop: if the process is still
// alive after d, it prints a one-line timeout error to stderr and exits
// with status 124 (the coreutils timeout convention) instead of hanging
// indefinitely or dying in a goroutine dump. d <= 0 arms nothing.
//
// The returned stop function disarms the watchdog; it is safe to call
// more than once and after firing. Callers MUST disarm on clean exit
// paths that keep the process alive afterwards — a long-lived process
// (lpserverd) that runs one timed operation and then keeps serving would
// otherwise be shot dead by the first operation's leftover timer. The
// one-shot CLIs disarm too, so a run that finishes just under the
// deadline cannot race its own exit against the timer.
//
// The context plumbing in core and power stops work at the next pass or
// polling boundary; the watchdog exists for the code paths that are not
// context-aware. Callers that do thread a context should arm the
// watchdog with a grace margin past the context deadline so the graceful
// path wins whenever it can.
func Watchdog(tool string, d time.Duration) (stop func()) {
	if d <= 0 {
		return func() {}
	}
	t := time.AfterFunc(d, func() {
		fmt.Fprintf(watchdogStderr, "%s: timeout: still running after %v\n", tool, d)
		watchdogExit(124)
	})
	return func() { t.Stop() }
}

// GraceAfter is the watchdog margin added past a context deadline: a
// quarter of the deadline, clamped to [1s, 30s].
func GraceAfter(d time.Duration) time.Duration {
	g := d / 4
	if g < time.Second {
		g = time.Second
	}
	if g > 30*time.Second {
		g = 30 * time.Second
	}
	return d + g
}

package cluster

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package's tests when any of them leaves a goroutine
// running repo code behind — an SSE handler, a share follower, a worker —
// that has not exited within a settle time after the last test.
func TestMain(m *testing.M) {
	code := m.Run()
	for deadline := time.Now().Add(5 * time.Second); code == 0; time.Sleep(20 * time.Millisecond) {
		leaked := repoGoroutines()
		if len(leaked) == 0 {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "%d goroutines still run repo code after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// repoGoroutines returns the stacks of the goroutines, other than the
// caller's, with a frame in the module (import paths under "repro/").
func repoGoroutines() []string {
	buf := make([]byte, 1<<16)
	for runtime.Stack(buf, true) == len(buf) {
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for i, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if i > 0 && strings.Contains(g, "\nrepro/") { // the caller's goroutine comes first
			leaked = append(leaked, g)
		}
	}
	return leaked
}

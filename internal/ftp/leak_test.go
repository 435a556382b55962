package ftp

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain runs the package's tests, then gates on goroutine leaks: once the
// tests pass, every goroutine that repro code started must end within
// leakSettle, or the run fails with their stacks grouped by creation site. A
// test that leaves a server listening (no Close) or a session open fails
// the package here, whichever test it was.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaks := settledLeaks(); len(leaks) > 0 {
			fmt.Fprint(os.Stderr, leakReport(leaks))
			code = 1
		}
	}
	os.Exit(code)
}

// leakSettle bounds the wait for goroutines that are already on their way
// out (a session or a data-connection accept returning after its
// connection closed).
const leakSettle = 2 * time.Second

// settledLeaks polls until no goroutine created by repro code is alive or
// leakSettle passes, and returns the stacks of those still alive.
func settledLeaks() []string {
	deadline := time.Now().Add(leakSettle)
	for {
		leaks := reproGoroutines()
		if len(leaks) == 0 || time.Now().After(deadline) {
			return leaks
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reproGoroutines returns the stack of every live goroutine whose creator is
// a function under repro/.
func reproGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "\ncreated by repro/") {
			out = append(out, g)
		}
	}
	return out
}

// creationSite is a stack's "created by" function and the file:line it
// started the goroutine from.
func creationSite(stack string) string {
	const by = "\ncreated by "
	f := strings.Fields(stack[strings.LastIndex(stack, by)+len(by):])
	for _, w := range f[1:] {
		if strings.Contains(w, ".go:") {
			return f[0] + " " + w
		}
	}
	return f[0]
}

// leakReport groups stacks by creation site and prints one stack per site.
func leakReport(stacks []string) string {
	groups := map[string][]string{}
	for _, g := range stacks {
		site := creationSite(g)
		groups[site] = append(groups[site], g)
	}
	sites := make([]string, 0, len(groups))
	for s := range groups {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	var b strings.Builder
	fmt.Fprintf(&b, "goroutine leak: %d goroutines started by repro code outlived the tests by %v\n", len(stacks), leakSettle)
	for _, s := range sites {
		fmt.Fprintf(&b, "\n%d × %s\n\n%s\n", len(groups[s]), s, groups[s][0])
	}
	return b.String()
}

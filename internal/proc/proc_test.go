//go:build smoke

// Package proc runs the shipped binaries as real processes and checks the
// system end to end: simserve and simrouter on loopback ports, killed with
// SIGTERM or SIGKILL and restarted with new flags, read through api.Client.
// It holds only tests, behind the smoke build tag, so `go test ./...` does
// not build it:
//
//	go test -tags smoke -count=1 ./internal/proc/
//
// TestMain builds simserve, simrouter, simctl and simgen once per run, with
// api.Version set to buildVersion at link time.
package proc

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/dataio"
	"repro/sim"
)

// binDir holds the binaries TestMain builds.
var binDir string

// buildVersion is the api.Version TestMain links into every binary.
const buildVersion = "proc-smoke-build"

func TestMain(m *testing.M) {
	os.Exit(run(m))
}

func run(m *testing.M) int {
	dir, err := os.MkdirTemp("", "proc-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"-ldflags", "-X repro/api.Version="+buildVersion, "repro/cmd/simserve", "repro/cmd/simrouter", "repro/cmd/simctl", "repro/cmd/simgen")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the binaries: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// bin is the path of a built binary.
func bin(name string) string { return filepath.Join(binDir, name) }

// proc is one simserve or simrouter child of a test. Its output goes to a
// log file that every restart appends to.
type proc struct {
	t    *testing.T
	name string
	addr string     // host:port of the current run
	log  string     // path of the log file
	cmd  *exec.Cmd  // nil once the process has been reaped
	exit chan error // receives cmd.Wait's result
}

// start launches the binary name with args on a free loopback port and
// waits until it answers /v1/healthz. When the test ends the process is
// killed if it still runs, and its log tail is printed if the test failed.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, name: name, log: filepath.Join(t.TempDir(), name+".log")}
	t.Cleanup(func() {
		if p.cmd != nil {
			p.kill()
		}
		if t.Failed() {
			t.Logf("%s log tail:\n%s", name, p.tail(20))
		}
	})
	p.restart(args...)
	return p
}

// restart launches the process, first or after a stop, on a new free port
// with args, and waits until it is healthy.
func (p *proc) restart(args ...string) {
	t := p.t
	t.Helper()
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close() // the child holds its own descriptor
	p.addr = freeAddr(t)
	cmd := exec.Command(bin(p.name), append([]string{"-addr", p.addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", p.name, err)
	}
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	p.cmd, p.exit = cmd, exit

	c := p.client()
	c.Timeout = time.Second
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Health(context.Background()); err == nil {
			return
		}
		select {
		case err := <-exit:
			p.cmd = nil
			t.Fatalf("%s exited before it was healthy: %v", p.name, err)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s on %s was not healthy within 10 s", p.name, p.addr)
		}
	}
}

// stop sends sig and waits for the process to exit, returning what Wait
// returned: nil for a clean exit.
func (p *proc) stop(sig os.Signal) error {
	_ = p.cmd.Process.Signal(sig) // one that has already exited is reaped below
	err := <-p.exit
	p.cmd = nil
	return err
}

// kill is kill -9.
func (p *proc) kill() { _ = p.stop(os.Kill) }

// url is the base URL of the current run.
func (p *proc) url() string { return "http://" + p.addr }

// client is a fresh api.Client for the current run.
func (p *proc) client() *api.Client { return api.NewClient(p.url()) }

// tail returns the last n lines of the log.
func (p *proc) tail(n int) string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	return strings.Join(lines[max(len(lines)-n, 0):], "\n")
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds the port; the window is tiny.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// simgen returns the NDJSON simgen writes for the SYN-O preset over 500
// users.
func simgen(t *testing.T, actions, window int) []byte {
	t.Helper()
	out, err := exec.Command(bin("simgen"), "-preset", "syn-o", "-users", "500",
		"-actions", strconv.Itoa(actions), "-window", strconv.Itoa(window)).Output()
	if err != nil {
		t.Fatalf("simgen: %v", err)
	}
	return out
}

// stream is simgen's output decoded.
func stream(t *testing.T, actions, window int) []sim.Action {
	t.Helper()
	var out []sim.Action
	err := dataio.ReadNDJSON(bytes.NewReader(simgen(t, actions, window)), func(a sim.Action) bool {
		out = append(out, a)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ingest POSTs actions to the default tracker in chunks of n; every chunk
// must be acked.
func ingest(t *testing.T, c *api.Client, actions []sim.Action, n int) {
	t.Helper()
	for i := 0; i < len(actions); i += n {
		if _, err := c.Ingest(context.Background(), "default", actions[i:min(i+n, len(actions))]); err != nil {
			t.Fatalf("ingest of actions [%d, %d): %v", i, min(i+n, len(actions)), err)
		}
	}
}

// seeds reads the default tracker's seeds.
func seeds(t *testing.T, c *api.Client) api.SeedsResponse {
	t.Helper()
	s, err := c.Seeds(context.Background(), "default")
	if err != nil {
		t.Fatalf("seeds: %v", err)
	}
	return s
}

// waitFor polls cond every 20 ms until it holds, for at most 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

package main

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
	"sync"
	"syscall"
	"time"

	"repro/api"
)

// children tracks every live child process so that any exit path — a failed
// gate, a panic recovered in main, SIGINT — can kill and reap them all.
var children struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// killAllChildren SIGKILLs and reaps every tracked child.
func killAllChildren() {
	children.Lock()
	ps := make([]*proc, 0, len(children.procs))
	for p := range children.procs {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// proc is one server child process (simserve or simrouter).
type proc struct {
	name    string   // log label, e.g. "shard0"
	bin     string   // binary path
	args    []string // full argument list, reused verbatim on restart
	addr    string   // host:port it listens on
	logPath string   // stderr+stdout, appended across restarts
	cmd     *exec.Cmd
	waited  chan struct{}
}

// start launches the process. Output goes to logPath (appended), kept in the
// run directory so a failure can print its tail.
func (p *proc) start() error {
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.cmd = cmd
	p.waited = make(chan struct{})
	children.Lock()
	if children.procs == nil {
		children.procs = make(map[*proc]struct{})
	}
	children.procs[p] = struct{}{}
	children.Unlock()
	go func(cmd *exec.Cmd, waited chan struct{}) {
		_ = cmd.Wait() // exit status is irrelevant: we kill these on purpose
		close(waited)
	}(cmd, p.waited)
	return nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// signalAndWait delivers sig and blocks until the process has been reaped.
func (p *proc) signalAndWait(sig syscall.Signal) {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Signal(sig) // already-exited is fine
	<-p.waited
	children.Lock()
	delete(children.procs, p)
	children.Unlock()
	p.cmd = nil
}

// kill is kill -9 plus reap.
func (p *proc) kill() { p.signalAndWait(syscall.SIGKILL) }

// logTail returns the last n lines of the process's log.
func (p *proc) logTail(n int) string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed again before the child binds it; the window is tiny and the smoke
// scripts' fixed ports (8384, 8399–8404) are never probed.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// fleet is the server side of one workload: one simserve, or a simrouter in
// front of several simserve shards, each shard with its own data dir.
type fleet struct {
	dir    string
	shards []*proc
	router *proc // nil for a single server
}

// tracker is the tracker name every fleet serves.
const tracker = "default"

// newFleet lays out (but does not start) the processes for w under dir.
func newFleet(w workload, binDir, dir string) (*fleet, error) {
	f := &fleet{dir: dir}
	n := max(w.shards, 1)
	var urls []string
	for i := 0; i < n; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{
			"-addr", addr, "-name", tracker,
			"-k", strconv.Itoa(w.k), "-window", strconv.Itoa(w.window),
			"-slide", strconv.Itoa(w.slide), "-beta", fmt.Sprint(w.beta),
			"-framework", "sic", "-oracle", "sieve", "-batch", "1",
			"-users", strconv.Itoa(w.users),
			"-data-dir", f.dataDir(i),
			"-wal-snapshot-bytes", strconv.FormatInt(w.snapshotWALBytes, 10),
		}
		if w.names {
			args = append(args, "-names")
		}
		if w.memoryBudget > 0 {
			args = append(args, "-memory-budget", strconv.FormatInt(w.memoryBudget, 10))
		}
		f.shards = append(f.shards, &proc{
			name: fmt.Sprintf("shard%d", i), bin: filepath.Join(binDir, "simserve"),
			args: args, addr: addr, logPath: filepath.Join(dir, fmt.Sprintf("shard%d.log", i)),
		})
		urls = append(urls, "http://"+addr)
	}
	if w.shards > 0 {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		f.router = &proc{
			name: "router", bin: filepath.Join(binDir, "simrouter"),
			args: []string{"-addr", addr, "-shards", strings.Join(urls, ",")},
			addr: addr, logPath: filepath.Join(dir, "router.log"),
		}
	}
	return f, nil
}

// dataDir is shard i's durability root.
func (f *fleet) dataDir(i int) string { return filepath.Join(f.dir, fmt.Sprintf("data%d", i)) }

// procs lists every process of the fleet, shards first.
func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.shards...)
	if f.router != nil {
		ps = append(ps, f.router)
	}
	return ps
}

// frontURL is the base URL a client talks to: the router if there is one.
func (f *fleet) frontURL() string {
	if f.router != nil {
		return "http://" + f.router.addr
	}
	return "http://" + f.shards[0].addr
}

// startAll launches every process and waits until the front answers healthy.
func (f *fleet) startAll(ctx context.Context) error {
	for _, p := range f.procs() {
		if err := p.start(); err != nil {
			return err
		}
	}
	return f.waitHealthy(ctx)
}

// restartShards starts every (stopped) shard again on its data dir and waits
// for the fleet to be healthy. The router, if any, keeps running.
func (f *fleet) restartShards(ctx context.Context) error {
	for _, p := range f.shards {
		if err := p.start(); err != nil {
			return err
		}
	}
	return f.waitHealthy(ctx)
}

// stopShards delivers sig to every shard and reaps them. SIGKILL is the
// crash; SIGTERM is the graceful drain that ends in a final snapshot.
func (f *fleet) stopShards(sig syscall.Signal) {
	for _, p := range f.shards {
		if p.cmd != nil {
			_ = p.cmd.Process.Signal(sig) // all at once, then reap each
		}
	}
	for _, p := range f.shards {
		p.signalAndWait(sig)
	}
}

// killAll kill -9s and reaps the whole fleet.
func (f *fleet) killAll() {
	for _, p := range f.procs() {
		p.kill()
	}
}

// healthPoll is how often waitHealthy retries; it bounds the resolution of
// setup_s and recovery_s.
const healthPoll = 2 * time.Millisecond

// waitHealthy blocks until every shard answers /v1/healthz with status ok
// and — with a router — the router's own cluster health (which doubles as
// its on-demand shard probe) reports ok too. A simserve only starts
// listening after its trackers have recovered, so "answers" means
// "recovered". A child that exits while we wait fails fast with its log.
func (f *fleet) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	pending := f.procs()
	for len(pending) > 0 {
		p := pending[0]
		c := api.NewClient("http://" + p.addr)
		c.Timeout = 2 * time.Second
		var ok bool
		if p == f.router {
			h, err := c.ClusterHealth(ctx)
			ok = err == nil && h.Status == "ok"
		} else {
			h, err := c.Health(ctx)
			ok = err == nil && h.Status == "ok"
		}
		if ok {
			pending = pending[1:]
			continue
		}
		select {
		case <-p.waited:
			return fmt.Errorf("%s exited during startup; log tail:\n%s", p.name, p.logTail(20))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(healthPoll):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 60s; log tail:\n%s", p.name, p.logTail(20))
		}
	}
	return nil
}

// logTails renders the tail of every process log, for failure reports.
func (f *fleet) logTails() string {
	var b bytes.Buffer
	for _, p := range f.procs() {
		fmt.Fprintf(&b, "--- %s (%s)\n%s\n", p.name, p.logPath, p.logTail(15))
	}
	return b.String()
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat times. Linux
// fixes it at 100 for every architecture Go runs on.
const clockTicksPerSecond = 100

// parseProcStatCPU extracts utime+stime (clock ticks) from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the LAST ')'.
func parseProcStatCPU(stat string) (ticks int64, err error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no ')' in %q", stat)
	}
	// After ") " comes field 3 (state); utime and stime are fields 14, 15.
	fields := strings.Fields(stat[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: only %d fields after comm", len(fields))
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", fields[11], fields[12])
	}
	return ut + st, nil
}

// parseProcStatusKB extracts one "Key:   123 kB" line from the contents of
// /proc/<pid>/status.
func parseProcStatusKB(status, key string) (kb int64, err error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: bad %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuSeconds reads the process's user+sys CPU time so far.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStatCPU(string(b))
	return float64(ticks) / clockTicksPerSecond, err
}

// peakRSSMB reads the process's resident-set high-water mark.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(string(b), "VmHWM")
	return float64(kb) / 1024, err
}

package fault

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Op names one filesystem operation kind an Injector can intercept.
type Op uint8

const (
	OpOpen Op = iota
	OpRead
	OpWrite
	OpSync
	OpTruncate
	OpClose
	OpRename
	OpRemove
	OpReadFile
	OpMkdir
	OpReadDir
	opCount
)

var opNames = [opCount]string{
	OpOpen: "open", OpRead: "read", OpWrite: "write", OpSync: "sync",
	OpTruncate: "truncate", OpClose: "close", OpRename: "rename",
	OpRemove: "remove", OpReadFile: "readfile", OpMkdir: "mkdir",
	OpReadDir: "readdir",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp inverts Op.String.
func ParseOp(s string) (Op, error) {
	for i, n := range opNames {
		if n == s {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown op %q", s)
}

// Rule describes one injected fault: the After+1'th operation of kind Op on
// a path containing Path fails with Err (and each of the following Times-1
// matches, after which the rule disarms — the "disk heals"). The zero Path
// matches every file.
type Rule struct {
	// Op is the operation kind to intercept.
	Op Op
	// Path, when non-empty, restricts the rule to paths containing it.
	Path string
	// After skips the first After matching operations before firing.
	After int
	// Times bounds how often the rule fires; 0 means sticky (never heals).
	Times int
	// Err is the injected error; nil means EIO.
	Err error
	// ShortWrite makes a fired write deliver half its bytes before failing
	// (only meaningful for OpWrite): the torn-write shape of a power cut.
	ShortWrite bool
	// Delay is injected latency: a firing rule sleeps for it first, then
	// fails the operation as above (with EIO when Err is nil) unless
	// DelayOnly is set.
	Delay time.Duration
	// DelayOnly marks the rule as latency-only: it delays but never fails.
	// A pure slow-disk simulation is a rule with a Delay and DelayOnly.
	DelayOnly bool

	// matched / fired count matching and firing ops; read via Injector.
	matched, fired int
}

// String renders the rule in the ParseRules format.
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "op=%s", r.Op)
	if r.Path != "" {
		fmt.Fprintf(&b, ",path=%s", r.Path)
	}
	if r.After > 0 {
		fmt.Fprintf(&b, ",after=%d", r.After)
	}
	if r.Times > 0 {
		fmt.Fprintf(&b, ",times=%d", r.Times)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, ",err=%s", errName(r.Err))
	}
	if r.ShortWrite {
		b.WriteString(",short")
	}
	if r.DelayOnly {
		b.WriteString(",delayonly")
	}
	if r.Delay > 0 {
		fmt.Fprintf(&b, ",delay=%s", r.Delay)
	}
	return b.String()
}

// injectedErrors maps the errno names ParseRules accepts.
var injectedErrors = map[string]error{
	"EIO":    syscall.EIO,
	"ENOSPC": syscall.ENOSPC,
	"EACCES": syscall.EACCES,
	"EBADF":  syscall.EBADF,
}

func errName(err error) string {
	for n, e := range injectedErrors {
		if e == err {
			return n
		}
	}
	return err.Error()
}

// ParseRules parses the CLI fault-rule syntax used by simserve -fault:
// semicolon-separated rules of comma-separated fields, e.g.
//
//	op=sync,path=wal.log,after=2,times=1,err=ENOSPC
//	op=write,path=snapshot,times=3,err=EIO,short;op=rename,path=snapshot,times=1
//
// Fields: op (required), path (substring), after, times, err
// (EIO/ENOSPC/EACCES/EBADF), short, delay (Go duration slept before the
// operation, which still fails unless delayonly is also given), delayonly
// (delay, never fail).
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		var r Rule
		haveOp := false
		for _, field := range strings.Split(rs, ",") {
			key, val, _ := strings.Cut(strings.TrimSpace(field), "=")
			var err error
			switch key {
			case "op":
				r.Op, err = ParseOp(val)
				haveOp = err == nil
			case "path":
				r.Path = val
			case "after":
				r.After, err = strconv.Atoi(val)
			case "times":
				r.Times, err = strconv.Atoi(val)
			case "err":
				e, ok := injectedErrors[val]
				if !ok {
					err = fmt.Errorf("fault: unknown error %q", val)
				}
				r.Err = e
			case "short":
				r.ShortWrite = true
			case "delayonly":
				r.DelayOnly = true
			case "delay":
				r.Delay, err = time.ParseDuration(val)
			default:
				err = fmt.Errorf("fault: unknown rule field %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: %w", rs, err)
			}
		}
		if !haveOp {
			return nil, fmt.Errorf("fault: rule %q missing op=", rs)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: no rules in %q", spec)
	}
	return rules, nil
}

// FromSeed derives one deterministic fault rule from seed: a reproducible
// chaos point (op kind × path × Nth occurrence × errno × short/full) over
// the write side of the durable path. The same seed always yields the same
// rule, so a chaos-smoke failure reproduces exactly.
func FromSeed(seed int64) Rule {
	rng := rand.New(rand.NewSource(seed))
	ops := []Op{OpWrite, OpSync, OpRename}
	paths := []string{"wal.log", "snapshot"}
	errs := []error{syscall.EIO, syscall.ENOSPC}
	r := Rule{
		Op:    ops[rng.Intn(len(ops))],
		Path:  paths[rng.Intn(len(paths))],
		After: rng.Intn(8),
		Times: 1 + rng.Intn(3),
		Err:   errs[rng.Intn(len(errs))],
	}
	if r.Op == OpWrite && rng.Intn(2) == 0 {
		r.ShortWrite = true
	}
	if r.Op == OpRename {
		r.Path = "snapshot" // wal.log is never renamed; keep the rule live
		r.ShortWrite = false
	}
	return r
}

// Injector wraps an FS and applies fault Rules to matching operations.
// Rules are consulted in order; the first armed match decides the outcome.
// Safe for concurrent use. Clearing the rules "heals the disk": every
// subsequent operation passes straight through.
type Injector struct {
	fs FS
	// Sleep implements injected Delay; nil means time.Sleep.
	Sleep Sleeper

	mu    sync.Mutex
	rules []*Rule
	fired int
}

// NewInjector returns an Injector over fs with no rules armed.
func NewInjector(fs FS) *Injector {
	return &Injector{fs: fs}
}

// Add arms a copy of r and returns a handle for Stats.
func (in *Injector) Add(r Rule) *Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	rc := r
	in.rules = append(in.rules, &rc)
	return &rc
}

// Clear disarms every rule — the injected disk heals.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// Fired returns how many operations have had a fault injected in total.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Stats returns how many operations r matched and how many it failed.
func (in *Injector) Stats(r *Rule) (matched, fired int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return r.matched, r.fired
}

// check consults the rules for one operation. It returns the injected
// error (nil = pass) and whether a failing write should be short.
func (in *Injector) check(op Op, path string) (error, bool) {
	in.mu.Lock()
	var delay time.Duration
	var err error
	var short bool
	for _, r := range in.rules {
		if r.Op != op || (r.Path != "" && !strings.Contains(path, r.Path)) {
			continue
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		if r.Times > 0 && r.fired >= r.Times {
			continue // disarmed: this fault has healed
		}
		r.fired++
		in.fired++
		delay = r.Delay
		if !r.DelayOnly {
			err = r.Err
			if err == nil {
				err = syscall.EIO
			}
			short = r.ShortWrite
		}
		break
	}
	in.mu.Unlock()
	if delay > 0 {
		if in.Sleep != nil {
			in.Sleep.Sleep(delay)
		} else {
			time.Sleep(delay)
		}
	}
	return err, short
}

// OpenFile implements FS.
func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err, _ := in.check(OpOpen, name); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := in.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, path: name}, nil
}

// Rename implements FS.
func (in *Injector) Rename(oldpath, newpath string) error {
	if err, _ := in.check(OpRename, oldpath+"\x00"+newpath); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return in.fs.Rename(oldpath, newpath)
}

// Remove implements FS.
func (in *Injector) Remove(name string) error {
	if err, _ := in.check(OpRemove, name); err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	return in.fs.Remove(name)
}

// ReadFile implements FS.
func (in *Injector) ReadFile(name string) ([]byte, error) {
	if err, _ := in.check(OpReadFile, name); err != nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: err}
	}
	return in.fs.ReadFile(name)
}

// MkdirAll implements FS.
func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if err, _ := in.check(OpMkdir, path); err != nil {
		return &os.PathError{Op: "mkdir", Path: path, Err: err}
	}
	return in.fs.MkdirAll(path, perm)
}

// ReadDir implements FS.
func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if err, _ := in.check(OpReadDir, name); err != nil {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: err}
	}
	return in.fs.ReadDir(name)
}

// injFile routes a File's operations back through the Injector's rules.
type injFile struct {
	in   *Injector
	f    File
	path string
}

func (f *injFile) Read(p []byte) (int, error) {
	if err, _ := f.in.check(OpRead, f.path); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

// Write delivers half the buffer before failing when the fired rule asks
// for a short write — the torn-tail shape crash recovery must tolerate.
func (f *injFile) Write(p []byte) (int, error) {
	err, short := f.in.check(OpWrite, f.path)
	if err == nil {
		return f.f.Write(p)
	}
	if short && len(p) > 1 {
		n, werr := f.f.Write(p[:len(p)/2])
		if werr != nil {
			return n, werr
		}
		return n, err
	}
	return 0, err
}

func (f *injFile) Sync() error {
	if err, _ := f.in.check(OpSync, f.path); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injFile) Truncate(size int64) error {
	if err, _ := f.in.check(OpTruncate, f.path); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *injFile) Close() error {
	if err, _ := f.in.check(OpClose, f.path); err != nil {
		f.f.Close() // release the descriptor anyway; the caller sees the fault
		return err
	}
	return f.f.Close()
}

// ReadAt is a read to the rules, like Read.
func (f *injFile) ReadAt(p []byte, off int64) (int, error) {
	if err, _ := f.in.check(OpRead, f.path); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

func (f *injFile) Fd() uintptr  { return f.f.Fd() }
func (f *injFile) Name() string { return f.path }

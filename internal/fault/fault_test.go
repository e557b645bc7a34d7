package fault

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestParseRulesRoundTrip: every field of the CLI rule syntax survives a
// parse → String round trip.
func TestParseRulesRoundTrip(t *testing.T) {
	spec := "op=sync,path=wal.log,after=2,times=1,err=ENOSPC;op=write,path=snapshot,times=3,err=EIO,short"
	rules, err := ParseRules(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	r := rules[0]
	if r.Op != OpSync || r.Path != "wal.log" || r.After != 2 || r.Times != 1 || r.Err != syscall.ENOSPC {
		t.Fatalf("rule 0 = %+v", r)
	}
	if got := r.String(); got != "op=sync,path=wal.log,after=2,times=1,err=ENOSPC" {
		t.Fatalf("String() = %q", got)
	}
	if !rules[1].ShortWrite || rules[1].Err != syscall.EIO {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	reparsed, err := ParseRules(rules[1].String())
	if err != nil || len(reparsed) != 1 || reparsed[0].String() != rules[1].String() {
		t.Fatalf("round trip: %v %+v", err, reparsed)
	}
}

func TestParseRulesRejects(t *testing.T) {
	for _, bad := range []string{"", "path=x", "op=levitate", "op=write,err=EWAT", "op=write,bogus=1"} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) accepted", bad)
		}
	}
}

// TestInjectorNthOpHeals: a rule skips After matches, fires Times times,
// then disarms — the disk heals.
func TestInjectorNthOpHeals(t *testing.T) {
	inj := NewInjector(OS())
	inj.Add(Rule{Op: OpWrite, After: 1, Times: 1, Err: syscall.EIO})
	f, err := inj.OpenFile(filepath.Join(t.TempDir(), "x"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("a")); err != nil {
		t.Fatalf("write 1 (before After): %v", err)
	}
	if _, err := f.Write([]byte("b")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("write 2: err = %v, want EIO", err)
	}
	if _, err := f.Write([]byte("c")); err != nil {
		t.Fatalf("write 3 (healed): %v", err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", inj.Fired())
	}
}

// TestInjectorShortWrite: a firing short-write rule delivers half the
// buffer before reporting the error — the torn-tail shape.
func TestInjectorShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x")
	inj := NewInjector(OS())
	inj.Add(Rule{Op: OpWrite, Times: 1, Err: syscall.ENOSPC, ShortWrite: true})
	f, err := inj.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("abcdefgh"))
	f.Close()
	if !errors.Is(werr, syscall.ENOSPC) || n != 4 {
		t.Fatalf("short write: n=%d err=%v, want 4, ENOSPC", n, werr)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "abcd" {
		t.Fatalf("on disk: %q (%v), want \"abcd\"", b, err)
	}
}

// TestInjectorPathFilter: rules only intercept paths containing their
// substring; Clear heals everything.
func TestInjectorPathFilter(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS())
	inj.Add(Rule{Op: OpOpen, Path: "wal.log", Err: syscall.EACCES}) // sticky
	if _, err := inj.OpenFile(filepath.Join(dir, "wal.log"), os.O_CREATE|os.O_RDWR, 0o644); !errors.Is(err, syscall.EACCES) {
		t.Fatalf("matching open: %v", err)
	}
	f, err := inj.OpenFile(filepath.Join(dir, "other"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("non-matching open: %v", err)
	}
	f.Close()
	inj.Clear()
	f, err = inj.OpenFile(filepath.Join(dir, "wal.log"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("open after Clear: %v", err)
	}
	f.Close()
}

// sleepRecorder records injected latency instead of sleeping.
type sleepRecorder struct{ total time.Duration }

func (s *sleepRecorder) Sleep(d time.Duration) { s.total += d }

// TestInjectorDelayOnly: a latency rule delays but never fails; a rule
// with a delay and no delayonly sleeps, then fails like any other (EIO
// when it names no error).
func TestInjectorDelayOnly(t *testing.T) {
	for _, tc := range []struct {
		rule Rule
		want error
	}{
		{Rule{Op: OpSync, Delay: 25 * time.Millisecond, DelayOnly: true}, nil},
		{Rule{Op: OpSync, Delay: 25 * time.Millisecond}, syscall.EIO},
	} {
		rec := &sleepRecorder{}
		inj := NewInjector(OS())
		inj.Sleep = rec
		inj.Add(tc.rule)
		f, err := inj.OpenFile(filepath.Join(t.TempDir(), "x"), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); !errors.Is(err, tc.want) {
			t.Errorf("%s: sync err = %v, want %v", tc.rule.String(), err, tc.want)
		}
		if rec.total != 25*time.Millisecond {
			t.Errorf("%s: slept %v, want 25ms", tc.rule.String(), rec.total)
		}
		f.Close()
	}
}

// TestFromSeedDeterministic: the same seed always derives the same rule,
// so a chaos-smoke failure reproduces exactly.
func TestFromSeedDeterministic(t *testing.T) {
	for seed := int64(1); seed < 50; seed++ {
		a, b := FromSeed(seed), FromSeed(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: %s != %s", seed, a.String(), b.String())
		}
		if a.Times == 0 {
			t.Fatalf("seed %d derived a sticky rule (never heals): %s", seed, a.String())
		}
		if a.Op == OpRename && a.Path != "snapshot" {
			t.Fatalf("seed %d: rename rule on %q never matches", seed, a.Path)
		}
	}
	r1, r2, r3 := FromSeed(1), FromSeed(2), FromSeed(3)
	if r1.String() == r2.String() && r2.String() == r3.String() {
		t.Fatal("seeds 1..3 all derived the same rule; FromSeed looks constant")
	}
}

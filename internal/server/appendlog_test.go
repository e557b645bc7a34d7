package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestAppendLog drives every failure edge of the one append mechanism under
// wal.log and names.log through a fault.Injector and asserts the file's bytes
// after each step: a failed append leaves the file as it was; a failed
// rollback poisons the log, with the junk still in the file; a poisoned log
// refuses appends without touching the file; rearm(keep) cuts the junk away
// behind keep bytes — 0, what the WAL keeps once a snapshot covers it, or
// everything appended so far, what names.log keeps — and appends resume.
func TestAppendLog(t *testing.T) {
	a, b, c := []byte("alpha;"), []byte("bravo;"), []byte("charlie;")
	cases := []struct {
		name  string
		rules []fault.Rule // armed once a is in the log, before b is offered
		junk  []byte       // what the failed append of b leaves behind a; nil = rolled back
	}{
		{"write fails", []fault.Rule{{Op: fault.OpWrite, Times: 1}}, nil},
		{"sync fails", []fault.Rule{{Op: fault.OpSync, Times: 1}}, nil},
		{"short write", []fault.Rule{{Op: fault.OpWrite, Times: 1, ShortWrite: true}}, nil},
		{"short write, truncate fails", []fault.Rule{{Op: fault.OpWrite, Times: 1, ShortWrite: true}, {Op: fault.OpTruncate, Times: 1}}, b[:len(b)/2]},
		{"sync fails, truncate fails", []fault.Rule{{Op: fault.OpSync, Times: 1}, {Op: fault.OpTruncate, Times: 1}}, b},
		// The truncate went through, but nothing says it will survive a crash.
		{"sync fails, rollback sync fails", []fault.Rule{{Op: fault.OpSync, Times: 2}}, []byte{}},
	}
	for _, tc := range cases {
		keeps := []int64{-1} // not poisoned: nothing to rearm
		if tc.junk != nil {
			keeps = []int64{0, int64(len(a))}
		}
		for _, keep := range keeps {
			name := tc.name
			if keep >= 0 {
				name += map[bool]string{true: ", rearm keeps nothing", false: ", rearm keeps all"}[keep == 0]
			}
			t.Run(name, func(t *testing.T) {
				inj := fault.NewInjector(fault.OS())
				path := filepath.Join(t.TempDir(), "x.log")
				file := func(step string, want ...[]byte) {
					t.Helper()
					got, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if w := bytes.Join(want, nil); !bytes.Equal(got, w) {
						t.Fatalf("%s: file holds %q, want %q", step, got, w)
					}
				}
				// A torn tail behind the parsed length is cut at open.
				if err := os.WriteFile(path, append(append([]byte{}, a...), "torn"...), 0o644); err != nil {
					t.Fatal(err)
				}
				l, err := openAppendLog(inj, path, int64(len(a)))
				if err != nil {
					t.Fatal(err)
				}
				defer l.close()
				file("open", a)

				faults := 0
				for _, r := range tc.rules {
					inj.Add(r)
					faults += r.Times
				}
				if err := l.append(b); !errors.Is(err, ErrDurability) {
					t.Fatalf("faulted append: err = %v, want ErrDurability", err)
				}
				if inj.Fired() != faults {
					t.Fatalf("%d of %d faults fired: the row is not what its name says", inj.Fired(), faults)
				}
				if (l.broken != nil) != (tc.junk != nil) {
					t.Fatalf("poisoned = %v (%v), want %v", l.broken != nil, l.broken, tc.junk != nil)
				}
				if tc.junk == nil {
					file("rolled back", a)
					if err := l.append(c); err != nil {
						t.Fatalf("append after a clean rollback: %v", err)
					}
					file("next append", a, c)
					return
				}
				file("poisoned", a, tc.junk)
				if err := l.append(c); !errors.Is(err, ErrDurability) || !strings.Contains(err.Error(), "unusable") {
					t.Fatalf("poisoned log took an append (err = %v)", err)
				}
				file("refused append", a, tc.junk)
				if err := l.rearm(keep); err != nil {
					t.Fatal(err)
				}
				if l.broken != nil || l.size != keep {
					t.Fatalf("after rearm(%d): broken = %v, size = %d", keep, l.broken, l.size)
				}
				file("rearm", a[:keep])
				if err := l.append(c); err != nil {
					t.Fatalf("append after rearm: %v", err)
				}
				file("append after rearm", a[:keep], c)
			})
		}
	}
}

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

// TestAppendLog drives every failure edge of the WAL's append through a
// fault.Injector and asserts the file's bytes after each step: a failed
// append leaves the file as it was; a failed rollback poisons the log, with
// the junk still in the file; a poisoned log refuses appends without touching
// the file; re-arming — a fresh handle on the file cut to nothing, what a
// snapshot covers and the junk behind it — lets appends resume.
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
		name := tc.name
		if tc.junk != nil {
			name += ", rearm keeps nothing"
		}
		t.Run(name, func(t *testing.T) {
			inj := fault.NewInjector(fault.OS())
			path := filepath.Join(t.TempDir(), walFileName)
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
			l, err := openWAL(inj, path, int64(len(a)))
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
			if err := l.write(b); !errors.Is(err, ErrDurability) {
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
				if err := l.write(c); err != nil {
					t.Fatalf("append after a clean rollback: %v", err)
				}
				file("next append", a, c)
				return
			}
			file("poisoned", a, tc.junk)
			if err := l.write(c); !errors.Is(err, ErrDurability) || !strings.Contains(err.Error(), "unusable") {
				t.Fatalf("poisoned log took an append (err = %v)", err)
			}
			file("refused append", a, tc.junk)
			l.close()
			if l, err = openWAL(inj, path, 0); err != nil {
				t.Fatal(err)
			}
			file("rearm")
			if err := l.write(c); err != nil {
				t.Fatalf("append after rearm: %v", err)
			}
			file("append after rearm", c)
		})
	}
}

// FuzzWALReplay feeds arbitrary bytes to the WAL parser as a log file. The
// laws: replay never panics; the length it parsed is at most the input's;
// appending the records it parsed to an empty log writes exactly the
// input's first size bytes — the parser takes nothing the writer would not
// have written, torn tail or not; and what follows those bytes is a torn
// tail, which replay accepts, exactly when no later offset starts a record
// replay would apply — else replay refuses it as corruption.
func FuzzWALReplay(f *testing.F) {
	replay := func(data []byte, apply func(walRecord) error) (int64, error) {
		in := memFS{f: &memFile{}}
		in.f.buf.Write(data)
		_, _, size, err := replayWAL(in, walFileName, apply)
		return size, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []walRecord
		size, err := replay(data, func(rec walRecord) error {
			recs = append(recs, rec)
			return nil
		})
		if size > int64(len(data)) {
			t.Fatalf("parsed %d bytes of %d", size, len(data))
		}
		later := -1 // the first offset past the parsed bytes that starts a record
		for off := int(size) + 1; off < len(data) && later < 0; off++ {
			replay(data[off:], func(walRecord) error {
				later = off
				return errors.New("found")
			})
		}
		corrupt := err != nil && strings.Contains(err.Error(), "a valid record starts")
		if err == nil && later >= 0 || corrupt && later < 0 {
			t.Fatalf("replay stopped %d bytes in with %v; the first record after that starts at %d", size, err, later)
		}
		again := &memFile{}
		w := &wal{f: again}
		for _, rec := range recs {
			if err := w.append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(again.buf.Bytes(), data[:size]) {
			t.Fatalf("re-appending %d records wrote %x, parsed from %x", len(recs), again.buf.Bytes(), data[:size])
		}
	})
}

// memFile is a log file in memory: what the WAL's replay and append paths
// call of one, and nothing else; memFS opens it under any name.
type memFile struct {
	fault.File
	buf  bytes.Buffer
	read int64 // Read's offset
}

func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.read)
	f.read += int64(n)
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(f.buf.Bytes()).ReadAt(p, off)
}

func (f *memFile) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (f *memFile) Sync() error                 { return nil }
func (f *memFile) Close() error                { return nil }

type memFS struct {
	fault.FS
	f *memFile
}

func (fs memFS) OpenFile(string, int, os.FileMode) (fault.File, error) { return fs.f, nil }

package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/gen"
	"repro/sim"
)

// corpusSpec is the tracker every row of testdata/datadirs was written with
// (the simserve flags in make_row.sh).
var corpusSpec = api.Spec{
	K: 5, Window: 300, Slide: 100, Beta: 0.1, Names: true,
	SnapshotWALBytes: 4096, MemoryBudgetBytes: 8192,
}

// corpusStream regenerates the stream make_row.sh posts (simgen -preset syn-o
// -users 300 -actions 1500 -window 600 -seed 7), users as their numeric IDs.
func corpusStream() []sim.Action { return gen.Stream(gen.SynO(300, 1500, 600, 7)) }

// corpusAnswers is a row's answers.json: the bodies of /seeds, /value and
// /stats, decoded loosely so that field order and spacing do not matter.
type corpusAnswers struct {
	Seeds, Value, Stats any
}

// serveAnswers reads the three answers of tracker "default" from reg over
// HTTP, exactly as the row's writer served them.
func serveAnswers(t *testing.T, reg *Registry) corpusAnswers {
	t.Helper()
	srv := httptest.NewServer(New(reg))
	defer srv.Close()
	get := func(path string) any {
		resp, err := http.Get(srv.URL + "/v1/trackers/default/" + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s %v", path, resp.StatusCode, body, err)
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	return corpusAnswers{Seeds: get("seeds"), Value: get("value"), Stats: get("stats")}
}

// bootRow boots the tracker directory dir/default; the registry is closed by
// the test's cleanup.
func bootRow(t *testing.T, dir string) (*Registry, *Tracked) {
	t.Helper()
	reg := NewRegistry()
	reg.SetDataDir(dir)
	tr, err := reg.Add("default", corpusSpec)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg, tr
}

// tornRecord is a torn WAL record, as a kill -9 mid-append leaves one: a
// record header promising 1 023 payload bytes with 2 behind it. It was never
// acknowledged.
const tornRecord = "B\377\007xy"

// tearWAL appends tornRecord to the wal.log of the tracker directory dir.
func tearWAL(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(tornRecord); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBootsEveryCommittedDataDir boots every row of testdata/datadirs — data
// directories written and then kill -9'd by simserve builds of past commits
// (README.md there says which and how) — and a torn twin of each, its WAL
// ending in tornRecord. It asserts the answers the writer served before the
// kill, which equal an uninterrupted replay of the same stream: every row is
// decision-identical to this tree. A crash right after the boot must come
// back with the same answers.
func TestBootsEveryCommittedDataDir(t *testing.T) {
	rows, err := filepath.Glob(filepath.Join("testdata", "datadirs", "*", "answers.json"))
	if err != nil || len(rows) == 0 {
		t.Fatalf("no corpus rows (%v)", err)
	}

	ref := NewRegistry()
	defer ref.Close()
	spec := corpusSpec
	spec.MemoryBudgetBytes = 0 // budgeted ≡ unbudgeted
	tr, err := ref.Add("default", spec)
	if err != nil {
		t.Fatal(err)
	}
	submitChunks(t, tr, internStream(corpusStream(), tr.Names()), 100)
	uninterrupted := serveAnswers(t, ref)

	for _, row := range rows {
		row := filepath.Dir(row)
		raw, err := os.ReadFile(filepath.Join(row, "answers.json"))
		if err != nil {
			t.Fatal(err)
		}
		var recorded corpusAnswers
		if err := json.Unmarshal(raw, &recorded); err != nil {
			t.Fatal(err)
		}
		for _, torn := range []bool{false, true} {
			name := filepath.Base(row)
			if torn {
				name += "-torn"
			}
			t.Run(name, func(t *testing.T) {
				if !reflect.DeepEqual(recorded, uninterrupted) {
					t.Fatalf("the row's writer served %+v, an uninterrupted replay serves %+v", recorded, uninterrupted)
				}
				dir := t.TempDir() // boot cuts the torn tail
				copyTree(t, row, filepath.Join(dir, "default"))
				if torn {
					tearWAL(t, filepath.Join(dir, "default"))
				}
				reg, _ := bootRow(t, dir)
				if got := serveAnswers(t, reg); !reflect.DeepEqual(got, recorded) {
					t.Fatalf("booted row serves %+v, its writer served %+v", got, recorded)
				}
				walSize := func(dir string) int64 {
					fi, err := os.Stat(filepath.Join(dir, walFileName))
					if err != nil {
						t.Fatal(err)
					}
					return fi.Size()
				}
				if got, want := walSize(filepath.Join(dir, "default")), walSize(row); got != want {
					t.Fatalf("boot left wal.log at %d bytes, the row's is %d: the torn tail was not cut", got, want)
				}

				crash := t.TempDir()
				copyTree(t, filepath.Join(dir, "default"), filepath.Join(crash, "default"))
				reg2, _ := bootRow(t, crash)
				if got := serveAnswers(t, reg2); !reflect.DeepEqual(got, recorded) {
					t.Fatalf("second boot serves %+v, want %+v", got, recorded)
				}
			})
		}
	}
}

// TestCombinedTornTails boots the grid-v2 row with its WAL ending in
// tornRecord, as a crash mid-append left it: the torn batch was never
// acknowledged, and any name only it carried is not in the table. Dropping
// it recovers the exact acknowledged state — and further ingest, interning
// new names behind the recovered table, matches an uninterrupted tracker's.
func TestCombinedTornTails(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "datadirs", "grid-v2"), filepath.Join(dir, "default"))
	tearWAL(t, filepath.Join(dir, "default"))
	_, tr := bootRow(t, dir)

	ref := NewRegistry()
	defer ref.Close()
	spec := corpusSpec
	spec.MemoryBudgetBytes = 0
	want, err := ref.Add("default", spec)
	if err != nil {
		t.Fatal(err)
	}
	all := corpusStream()
	submitChunks(t, want, internStream(all, want.Names()), 100)
	checkAnswer(t, "combined torn tails", tr.Snapshot(), *want.Snapshot())
	if got, live := tr.Names().Len(), want.Names().Len(); got != live {
		t.Fatalf("recovered intern table has %d names, the uninterrupted one %d", got, live)
	}

	// More actions, a third of them by users the stream never had.
	last := all[len(all)-1].ID
	var more []sim.Action
	for i := sim.ActionID(1); i <= 300; i++ {
		more = append(more, sim.Action{ID: last + i, User: sim.UserID(i * 7 % 450), Parent: sim.NoParent})
	}
	submitChunks(t, tr, internStream(more, tr.Names()), 100)
	submitChunks(t, want, internStream(more, want.Names()), 100)
	checkAnswer(t, "post-torn-tail ingest", tr.Snapshot(), *want.Snapshot())
	for id := 0; id < want.Names().Len(); id++ {
		a, _ := tr.Names().Name(uint32(id))
		b, _ := want.Names().Name(uint32(id))
		if a != b {
			t.Fatalf("ID %d names %q after recovery, %q uninterrupted", id, a, b)
		}
	}
	if tr.Names().Len() <= 300 {
		t.Fatalf("no new name was interned (%d names)", tr.Names().Len())
	}
}

// TestBootsDamagedDataDir damages one file of a copy of the grid-v2 row at
// a time — snapshot.sim2, wal.log and its first cold segment, each
// cut to half its length or with one bit of its middle byte flipped — and
// boots it. Boot must either refuse, naming the damaged file, or serve
// exactly what an unbudgeted tracker fed the stream's first Processed
// actions serves: an acknowledged prefix, never a state no prefix has.
func TestBootsDamagedDataDir(t *testing.T) {
	row := filepath.Join("testdata", "datadirs", "grid-v2")
	segs, err := filepath.Glob(filepath.Join(row, "spill", "seg-*.sim2"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("the row has no cold segment (%v)", err)
	}
	seg, err := filepath.Rel(row, segs[0])
	if err != nil {
		t.Fatal(err)
	}
	damages := []struct {
		name string
		do   func([]byte) []byte
	}{
		{"half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
	}
	all := corpusStream()
	for _, file := range []string{snapshotFileName, walFileName, seg} {
		for _, dmg := range damages {
			t.Run(filepath.Base(file)+"/"+dmg.name, func(t *testing.T) {
				dir := t.TempDir()
				copyTree(t, row, filepath.Join(dir, "default"))
				path := filepath.Join(dir, "default", file)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, dmg.do(data), 0o644); err != nil {
					t.Fatal(err)
				}
				reg := NewRegistry()
				reg.SetDataDir(dir)
				defer reg.Close()
				tr, err := reg.Add("default", corpusSpec)
				if err != nil {
					if !strings.Contains(err.Error(), path) {
						t.Fatalf("boot refused without naming %s: %v", file, err)
					}
					t.Logf("refused: %v", err)
					return
				}
				processed := tr.Snapshot().Processed
				t.Logf("booted at %d of %d actions", processed, len(all))
				ref := NewRegistry()
				defer ref.Close()
				spec := corpusSpec
				spec.MemoryBudgetBytes = 0
				want, err := ref.Add("default", spec)
				if err != nil {
					t.Fatal(err)
				}
				submitChunks(t, want, internStream(all[:processed], want.Names()), 100)
				if got, prefix := serveAnswers(t, reg), serveAnswers(t, ref); !reflect.DeepEqual(got, prefix) {
					t.Fatalf("booted at %d actions, serves %+v; the first %d actions serve %+v", processed, got, processed, prefix)
				}
			})
		}
	}
}

// TestWALRefusesMidLogCorruption flips one bit in the middle of each record
// of the grid-v2 row's wal.log, one record at a time, and boots. A torn
// write can only be the last record, so a bad record with a valid one behind
// it is corruption: boot must refuse it, naming the file and the record, and
// leave the log as it found it. A bad last record is the torn tail: boot
// cuts it and serves the acknowledged prefix before it.
func TestWALRefusesMidLogCorruption(t *testing.T) {
	row := filepath.Join("testdata", "datadirs", "grid-v2")
	log, err := os.ReadFile(filepath.Join(row, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	var starts []int // each record's first byte: tag · uvarint length · payload · CRC-32
	for off := 0; off < len(log); {
		starts = append(starts, off)
		n, k := binary.Uvarint(log[off+1:])
		off += 1 + k + int(n) + 4
	}
	if len(starts) < 3 {
		t.Fatalf("the row's log holds %d records, too few to corrupt one mid-log", len(starts))
	}
	all := corpusStream()
	for i, start := range starts {
		t.Run(fmt.Sprintf("record-%d-of-%d", i+1, len(starts)), func(t *testing.T) {
			end := len(log)
			if i+1 < len(starts) {
				end = starts[i+1]
			}
			damaged := bytes.Clone(log)
			damaged[(start+end)/2] ^= 0x10
			dir := t.TempDir()
			copyTree(t, row, filepath.Join(dir, "default"))
			path := filepath.Join(dir, "default", walFileName)
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry()
			reg.SetDataDir(dir)
			defer reg.Close()
			tr, err := reg.Add("default", corpusSpec)
			if i+1 < len(starts) {
				if want := fmt.Sprintf("%s record %d:", path, i+1); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("boot: %v; want a refusal naming %q", err, want)
				}
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, damaged) {
					t.Fatalf("the refused boot changed %s (%v)", walFileName, err)
				}
				t.Logf("refused: %v", err)
				return
			}
			if err != nil {
				t.Fatalf("boot with the last record torn: %v", err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(start) {
				t.Fatalf("boot left %s with %v bytes (%v), want the %d before the torn record", walFileName, fi.Size(), err, start)
			}
			processed := tr.Snapshot().Processed
			ref := NewRegistry()
			defer ref.Close()
			spec := corpusSpec
			spec.MemoryBudgetBytes = 0
			want, err := ref.Add("default", spec)
			if err != nil {
				t.Fatal(err)
			}
			submitChunks(t, want, internStream(all[:processed], want.Names()), 100)
			if got, prefix := serveAnswers(t, reg), serveAnswers(t, ref); !reflect.DeepEqual(got, prefix) {
				t.Fatalf("booted at %d actions, serves %+v; the first %d actions serve %+v", processed, got, processed, prefix)
			}
		})
	}
}

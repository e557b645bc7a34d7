package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/api"
	"repro/internal/fault"
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

// TestBootsEveryCommittedDataDir boots every row of testdata/datadirs — data
// directories written and then kill -9'd by simserve builds of past commits
// (README.md there says which and how) — and asserts the answers the writer
// served before the kill, which equal an uninterrupted replay of the same
// stream: every row is decision-identical to this tree. Boot migrates a row
// with a names.log into the snapshot and removes the file; a crash right
// after that boot must come back with the same answers.
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
		t.Run(filepath.Base(row), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(row, "answers.json"))
			if err != nil {
				t.Fatal(err)
			}
			var recorded corpusAnswers
			if err := json.Unmarshal(raw, &recorded); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recorded, uninterrupted) {
				t.Fatalf("the row's writer served %+v, an uninterrupted replay serves %+v", recorded, uninterrupted)
			}

			dir := t.TempDir() // boot cuts torn tails and removes names.log
			copyTree(t, row, filepath.Join(dir, "default"))
			reg, _ := bootRow(t, dir)
			if got := serveAnswers(t, reg); !reflect.DeepEqual(got, recorded) {
				t.Fatalf("booted row serves %+v, its writer served %+v", got, recorded)
			}
			if _, err := os.Stat(filepath.Join(dir, "default", "names.log")); !os.IsNotExist(err) {
				t.Fatalf("names.log survived the boot (%v)", err)
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

// TestCombinedTornTails boots the corpus row whose legacy names.log and
// wal.log both end in a torn record, as a crash mid-(names append, WAL
// append) left them: the torn WAL batch was never acknowledged and the torn
// name record can only belong to it, so dropping both recovers the exact
// acknowledged state — and further ingest, interning new names behind the
// migrated table, matches an uninterrupted tracker's.
func TestCombinedTornTails(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "datadirs", "8915565-torn"), filepath.Join(dir, "default"))
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

// TestChaosLegacyRemoveFails is the crash matrix's migration cell: booting a
// legacy row whose names.log cannot be removed once the snapshot has taken
// it over, then a kill -9. The row is then in the state a crash between the
// migration's snapshot and its remove leaves — the table in the snapshot and
// in names.log both — and must boot to the recorded answers, migrating this
// time.
func TestChaosLegacyRemoveFails(t *testing.T) {
	row := filepath.Join("testdata", "datadirs", "8915565")
	raw, err := os.ReadFile(filepath.Join(row, "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recorded corpusAnswers
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, row, filepath.Join(dir, "default"))
	rules, err := fault.ParseRules("op=remove,path=names.log,times=1,err=EIO")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.OS())
	inj.Add(rules[0])
	reg := NewRegistry()
	reg.SetFS(inj)
	reg.SetDataDir(dir)
	if _, err := reg.Add("default", corpusSpec); err != nil {
		t.Fatalf("a failed remove failed the boot: %v", err)
	}
	defer reg.Close()
	if inj.Fired() != 1 {
		t.Fatalf("%d faults fired; the cell is vacuous", inj.Fired())
	}
	if got := serveAnswers(t, reg); !reflect.DeepEqual(got, recorded) {
		t.Fatalf("booted row serves %+v, its writer served %+v", got, recorded)
	}

	crash := t.TempDir()
	copyTree(t, filepath.Join(dir, "default"), filepath.Join(crash, "default"))
	if _, err := os.Stat(filepath.Join(crash, "default", "names.log")); err != nil {
		t.Fatalf("names.log is gone although its remove failed: %v", err)
	}
	reg2, _ := bootRow(t, crash)
	if got := serveAnswers(t, reg2); !reflect.DeepEqual(got, recorded) {
		t.Fatalf("boot after the failed remove serves %+v, want %+v", got, recorded)
	}
	if _, err := os.Stat(filepath.Join(crash, "default", "names.log")); !os.IsNotExist(err) {
		t.Fatalf("names.log survived the second boot (%v)", err)
	}
}

package sim_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/sim"
)

// identityDatasets generates all four evaluation stream shapes (Reddit-like,
// Twitter-like, SYN-O, SYN-N) at a scale small enough that the full
// cross-products of the identity suites stay fast under -race.
func identityDatasets() []struct {
	name    string
	actions []sim.Action
} {
	const (
		users  = 500
		stream = 2600
		window = 700
		seed   = 11
	)
	cfgs := []gen.Config{
		gen.RedditLike(users, stream, window, seed),
		gen.TwitterLike(users, stream, window, seed),
		gen.SynO(users, stream, window, seed),
		gen.SynN(users, stream, window, seed),
	}
	out := make([]struct {
		name    string
		actions []sim.Action
	}, len(cfgs))
	for i, c := range cfgs {
		out[i].name = c.Name
		out[i].actions = gen.Stream(c)
	}
	return out
}

// TestSaveLoadRoundTripIdentity is the acceptance matrix of the durable
// tracker contract: for every generated dataset, both frameworks (IC and
// SIC) and both window modes (sequence- and time-based), interrupting a run
// at an arbitrary mid-stream point with SaveTo, reconstructing with Load
// and finishing the stream yields Seeds, Value, CheckpointStarts and SaveTo
// bytes identical to a run that was never interrupted — checked at every
// slide boundary of the remainder, plus the cumulative Stats at the end.
// Run under -race in CI.
func TestSaveLoadRoundTripIdentity(t *testing.T) {
	const (
		window = 700
		slide  = 50
		k      = 6
	)
	for _, ds := range identityDatasets() {
		for _, fw := range []sim.Framework{sim.SIC, sim.IC} {
			for _, byTime := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/byTime=%v", ds.name, fw, byTime)
				t.Run(name, func(t *testing.T) {
					cfg := sim.Config{
						K: k, WindowSize: window, Slide: slide, Beta: 0.1,
						Framework: fw, TimeBased: byTime,
					}
					ref, err := sim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer ref.Close()

					// A deliberately awkward cut: mid-slide, mid-window.
					cut := len(ds.actions)*2/3 + 7
					interrupted, err := sim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, a := range ds.actions[:cut] {
						if err := ref.Process(a); err != nil {
							t.Fatal(err)
						}
						if err := interrupted.Process(a); err != nil {
							t.Fatal(err)
						}
					}

					var snap bytes.Buffer
					if err := interrupted.SaveTo(&snap); err != nil {
						t.Fatalf("SaveTo: %v", err)
					}
					if err := interrupted.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					resumed, err := sim.Load(bytes.NewReader(snap.Bytes()), cfg)
					if err != nil {
						t.Fatalf("Load: %v", err)
					}
					defer resumed.Close()

					if got, want := resumed.Processed(), ref.Processed(); got != want {
						t.Fatalf("restored Processed = %d, want %d", got, want)
					}
					if got, want := resumed.LastID(), ref.LastID(); got != want {
						t.Fatalf("restored LastID = %d, want %d", got, want)
					}
					var got, want bytes.Buffer
					for i, a := range ds.actions[cut:] {
						if err := ref.Process(a); err != nil {
							t.Fatal(err)
						}
						if err := resumed.Process(a); err != nil {
							t.Fatal(err)
						}
						if (cut+i+1)%slide != 0 {
							continue
						}
						if v, rv := resumed.Value(), ref.Value(); v != rv {
							t.Fatalf("action %d: resumed value %v != uninterrupted %v", cut+i+1, v, rv)
						}
						if s, rs := resumed.Seeds(), ref.Seeds(); !reflect.DeepEqual(s, rs) {
							t.Fatalf("action %d: resumed seeds %v != uninterrupted %v", cut+i+1, s, rs)
						}
						if c, rc := resumed.CheckpointStarts(), ref.CheckpointStarts(); !reflect.DeepEqual(c, rc) {
							t.Fatalf("action %d: resumed checkpoints %v != uninterrupted %v", cut+i+1, c, rc)
						}
						got.Reset()
						want.Reset()
						if err := resumed.SaveTo(&got); err != nil {
							t.Fatal(err)
						}
						if err := ref.SaveTo(&want); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got.Bytes(), want.Bytes()) {
							t.Fatalf("action %d: the resumed tracker's snapshot differs from the uninterrupted one's", cut+i+1)
						}
					}
					if st, rst := resumed.Stats(), ref.Stats(); st != rst {
						t.Fatalf("final stats diverge: resumed %+v, uninterrupted %+v", st, rst)
					}
					if v, rv := resumed.CheckpointValues(), ref.CheckpointValues(); !reflect.DeepEqual(v, rv) {
						t.Fatalf("final checkpoint values diverge: %v vs %v", v, rv)
					}
				})
			}
		}
	}
}

// TestSaveLoadAcrossRuntimeKnobs pins that ExpectedUsers is a runtime knob
// of the snapshot contract: a snapshot from a tracker built without it
// loads into one configured with it and continues identically.
func TestSaveLoadAcrossRuntimeKnobs(t *testing.T) {
	ds := identityDatasets()[2] // SYN-O
	base := sim.Config{K: 6, WindowSize: 700, Slide: 50, Beta: 0.1}
	cut := len(ds.actions) / 2

	ref, err := sim.New(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	saver, err := sim.New(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ds.actions[:cut] {
		if err := ref.Process(a); err != nil {
			t.Fatal(err)
		}
		if err := saver.Process(a); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := saver.SaveTo(&snap); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	if err := saver.Close(); err != nil {
		t.Fatal(err)
	}

	sized := base
	sized.ExpectedUsers = 4096
	resumed, err := sim.Load(bytes.NewReader(snap.Bytes()), sized)
	if err != nil {
		t.Fatalf("Load with ExpectedUsers=4096: %v", err)
	}
	defer resumed.Close()
	for _, a := range ds.actions[cut:] {
		if err := ref.Process(a); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Process(a); err != nil {
			t.Fatal(err)
		}
	}
	if v, rv := resumed.Value(), ref.Value(); v != rv {
		t.Fatalf("resumed value %v != reference %v", v, rv)
	}
	if s, rs := resumed.Seeds(), ref.Seeds(); !reflect.DeepEqual(s, rs) {
		t.Fatalf("resumed seeds %v != reference %v", s, rs)
	}
}

// TestSaveLoadBatchedTracker: a batched tracker saved between two ProcessAll
// calls — 100 actions each at BatchSize 64, so every call ends on a short
// batch — restores to the tracker that was never interrupted, and stays it
// through the rest of the stream.
func TestSaveLoadBatchedTracker(t *testing.T) {
	ds := identityDatasets()[0]
	cfg := sim.Config{K: 5, WindowSize: 500, Slide: 25, Beta: 0.1, BatchSize: 64}
	cut := 700
	ref, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	tr, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedCalls(t, ref, ds.actions[:cut], 100)
	feedCalls(t, tr, ds.actions[:cut], 100)
	var snap bytes.Buffer
	if err := tr.SaveTo(&snap); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.Load(bytes.NewReader(snap.Bytes()), cfg)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer resumed.Close()
	if got := resumed.Processed(); got != int64(cut) {
		t.Fatalf("restored Processed = %d, want %d", got, cut)
	}
	if got, want := resumed.LastID(), ref.LastID(); got != want {
		t.Fatalf("restored LastID = %d, want %d", got, want)
	}
	feedCalls(t, ref, ds.actions[cut:], 100)
	feedCalls(t, resumed, ds.actions[cut:], 100)
	if got := resumed.Processed(); got != int64(len(ds.actions)) {
		t.Fatalf("final Processed = %d, want %d", got, len(ds.actions))
	}
	if !bytes.Equal(savedState(t, resumed), savedState(t, ref)) {
		t.Fatal("resumed batched tracker diverged from the uninterrupted one")
	}
}

// TestLoadRejectsMismatchedConfig asserts the snapshot's configuration echo
// guards against loading state under a different query definition.
func TestLoadRejectsMismatchedConfig(t *testing.T) {
	ds := identityDatasets()[0]
	cfg := sim.Config{K: 5, WindowSize: 500, Slide: 25, Beta: 0.1}
	tr, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, a := range ds.actions[:300] {
		if err := tr.Process(a); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := tr.SaveTo(&snap); err != nil {
		t.Fatal(err)
	}

	mutations := []struct {
		name   string
		mutate func(*sim.Config)
		want   string
	}{
		{"K", func(c *sim.Config) { c.K = 6 }, "K"},
		{"WindowSize", func(c *sim.Config) { c.WindowSize = 600 }, "WindowSize"},
		{"Slide", func(c *sim.Config) { c.Slide = 50 }, "Slide"},
		{"Beta", func(c *sim.Config) { c.Beta = 0.2 }, "Beta"},
		{"Framework", func(c *sim.Config) { c.Framework = sim.IC }, "Framework"},
		{"Oracle", func(c *sim.Config) { c.Oracle = sim.ThresholdStream }, "Oracle"},
		{"TimeBased", func(c *sim.Config) { c.TimeBased = true }, "TimeBased"},
		{"Weights", func(c *sim.Config) { c.Weights = sim.Cardinality{} }, "weights"},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			bad := cfg
			m.mutate(&bad)
			_, err := sim.Load(bytes.NewReader(snap.Bytes()), bad)
			if err == nil {
				t.Fatalf("Load with mutated %s succeeded", m.name)
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Fatalf("error does not mention %q: %v", m.want, err)
			}
		})
	}

	// The unmutated config still loads.
	if _, err := sim.Load(bytes.NewReader(snap.Bytes()), cfg); err != nil {
		t.Fatalf("Load with matching config: %v", err)
	}
}

// TestLoadRejectsGarbage pins the error surface on non-snapshot input.
func TestLoadRejectsGarbage(t *testing.T) {
	cfg := sim.Config{K: 5, WindowSize: 500}
	if _, err := sim.Load(strings.NewReader("not a snapshot at all"), cfg); err == nil {
		t.Fatal("garbage input accepted")
	}
	if _, err := sim.Load(strings.NewReader(""), cfg); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestLoadRefusesUnwrittenConfigVersion: an image whose CFG0 section is one
// version past the one SaveTo writes (section CRCs recomputed, as
// FuzzTrackerLoad does) is refused, and the error names the version.
func TestLoadRefusesUnwrittenConfigVersion(t *testing.T) {
	cfg := sim.Config{K: 5, WindowSize: 500}
	tr, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var img bytes.Buffer
	if err := tr.SaveTo(&img); err != nil {
		t.Fatal(err)
	}
	b := img.Bytes()
	tag := bytes.Index(b, []byte("CFG0"))
	if tag < 0 {
		t.Fatal("the image has no CFG0 section")
	}
	_, n := binary.Uvarint(b[tag+4:])
	b[tag+4+n]++ // the payload's first byte: the version, a one-byte uvarint
	_, err = sim.Load(bytes.NewReader(reseal(b)), cfg)
	if want := fmt.Sprintf("config version %d", b[tag+4+n]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load: %v, want an error naming %s", err, want)
	}
}

// TestSaveLoadFreshTracker round-trips a tracker that has processed
// nothing: the degenerate snapshot must load and then ingest normally.
func TestSaveLoadFreshTracker(t *testing.T) {
	cfg := sim.Config{K: 3, WindowSize: 100}
	tr, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := tr.SaveTo(&snap); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.Load(bytes.NewReader(snap.Bytes()), cfg)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer resumed.Close()
	if err := resumed.Process(sim.Action{ID: 1, User: 2, Parent: sim.NoParent}); err != nil {
		t.Fatalf("Process after fresh-tracker load: %v", err)
	}
	if got := resumed.Processed(); got != 1 {
		t.Fatalf("Processed = %d, want 1", got)
	}
}

// TestLoadHandsExtraSections: Load hands the payload of an extra section
// SaveTo wrote to the Section's Read in its one pass, fails with Read's
// error, and skips the section when the caller does not read it.
func TestLoadHandsExtraSections(t *testing.T) {
	cfg := sim.Config{K: 3, WindowSize: 100}
	tr, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var snap bytes.Buffer
	write := func(w io.Writer) error { _, err := io.WriteString(w, "payload"); return err }
	if err := tr.SaveTo(&snap, sim.Section{Tag: "XTRA", Write: write}); err != nil {
		t.Fatal(err)
	}
	var got []string
	read := func(p []byte) error { got = append(got, string(p)); return nil }
	refuse := errors.New("refused")
	for _, tc := range []struct {
		name  string
		extra []sim.Section
		err   error
		got   []string
	}{
		{"read", []sim.Section{{Tag: "XTRA", Read: read}}, nil, []string{"payload"}},
		{"other tag", []sim.Section{{Tag: "OTHR", Read: read}}, nil, nil},
		{"none", nil, nil, nil},
		{"refused", []sim.Section{{Tag: "XTRA", Read: func([]byte) error { return refuse }}}, refuse, nil},
	} {
		got = nil
		loaded, err := sim.Load(bytes.NewReader(snap.Bytes()), cfg, tc.extra...)
		if !errors.Is(err, tc.err) || !reflect.DeepEqual(got, tc.got) {
			t.Fatalf("%s: Load err = %v and read %q, want %v and %q", tc.name, err, got, tc.err, tc.got)
		}
		if loaded != nil {
			loaded.Close()
		}
	}
}

// FuzzTrackerLoad: Load of an image, under the configuration the input's
// oracle and framework bytes pick, either fails or returns a tracker whose
// image s1 loads and saves back to exactly s1, and that takes 200 further
// actions without panicking. Section CRCs are recomputed before Load, so a
// byte mutation reaches the section decoders instead of stopping at the
// checksum. The seeds are the images of small SYN-O trackers, one per oracle
// × framework, and a snapshot simserve wrote under a memory budget
// (internal/server's grid-v2 data dir), whose cold segments are copied
// into the spill directory every Load opens, so its extents resolve.
func FuzzTrackerLoad(f *testing.F) {
	const row = "../internal/server/testdata/datadirs/grid-v2/"
	oracles := []sim.Oracle{sim.SieveStreaming, sim.ThresholdStream, sim.BlogWatch, sim.MkC}
	frameworks := []sim.Framework{sim.SIC, sim.IC}
	spill := f.TempDir()
	segs, err := os.ReadDir(row + "spill")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range segs {
		b, err := os.ReadFile(row + "spill/" + e.Name())
		if err != nil {
			f.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(spill, e.Name()), b, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	// The data dir's query: simserve -k 5 -window 300 -slide 100.
	config := func(orc, fwk uint8) sim.Config {
		return sim.Config{K: 5, WindowSize: 300, Slide: 100, SpillDir: spill,
			Oracle: oracles[int(orc)%len(oracles)], Framework: frameworks[int(fwk)%len(frameworks)]}
	}
	actions := gen.Stream(gen.SynO(100, 800, 300, 3))
	for orc := range uint8(len(oracles)) {
		for fwk := range uint8(len(frameworks)) {
			tr, err := sim.New(config(orc, fwk))
			if err != nil {
				f.Fatal(err)
			}
			var img bytes.Buffer
			if err := tr.ProcessAll(actions); err != nil {
				f.Fatal(err)
			}
			if err := tr.SaveTo(&img); err != nil {
				f.Fatal(err)
			}
			tr.Close()
			f.Add(orc, fwk, img.Bytes())
		}
	}
	img, err := os.ReadFile(row + "snapshot.sim2")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), uint8(0), img)
	more := gen.Stream(gen.SynO(100, 200, 300, 5))
	f.Fuzz(func(t *testing.T, orc, fwk uint8, image []byte) {
		cfg := config(orc, fwk)
		tr, err := sim.Load(bytes.NewReader(reseal(image)), cfg)
		if err != nil {
			return
		}
		defer tr.Close()
		var s1, s2 bytes.Buffer
		if err := tr.SaveTo(&s1); err != nil {
			t.Fatal(err)
		}
		again, err := sim.Load(bytes.NewReader(s1.Bytes()), cfg)
		if err != nil {
			t.Fatalf("Load of a loaded tracker's image: %v", err)
		}
		defer again.Close()
		if err := again.SaveTo(&s2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
			t.Fatalf("load, save, load, save changed the image: %d then %d bytes", s1.Len(), s2.Len())
		}
		// Errors (an ID at or below the loaded last one) are answers; only
		// a panic fails.
		base := tr.LastID() + 1
		for _, a := range more {
			a.ID += base
			if a.Parent != sim.NoParent {
				a.Parent += base
			}
			_ = tr.Process(a)
		}
	})
}

// reseal returns a copy of a SIM2 image with the CRC of every section whose
// framing fits the image recomputed.
func reseal(image []byte) []byte {
	b := bytes.Clone(image)
	if len(b) < 4 {
		return b
	}
	_, n := binary.Uvarint(b[4:])
	for off := 4 + n; n > 0 && off+4 < len(b); {
		plen, m := binary.Uvarint(b[off+4:])
		if m <= 0 || plen > uint64(len(b)) {
			break
		}
		end := off + 4 + m + int(plen)
		if end+4 > len(b) {
			break
		}
		binary.LittleEndian.PutUint32(b[end:], crc32.ChecksumIEEE(b[off+4+m:end]))
		off = end + 4
	}
	return b
}

package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/stream"
	"repro/internal/wire"
)

// savedChain is a framework's saved payload taken apart at the checkpoint
// chain: everything before the chain's length, and each checkpoint's start
// and oracle payload. It assembles back into the bytes Save wrote.
type savedChain struct {
	head     []byte
	starts   []stream.ActionID
	payloads [][]byte
}

func splitSaved(t *testing.T, saved []byte) savedChain {
	t.Helper()
	r := wire.NewReader(bytes.NewReader(saved))
	var head bytes.Buffer
	w := wire.NewWriter(&head)
	w.Uvarint(r.Uvarint())
	w.Bytes(r.Bytes(wire.MaxLen))
	for range 6 { // processed, lastCpStart and the four counters
		w.Varint(r.Varint())
	}
	c := savedChain{head: head.Bytes()}
	for range r.Len(wire.MaxLen) {
		c.starts = append(c.starts, stream.ActionID(r.Varint()))
		c.payloads = append(c.payloads, r.Bytes(wire.MaxLen))
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return c
}

func (c savedChain) bytes() []byte {
	var buf bytes.Buffer
	buf.Write(c.head)
	w := wire.NewWriter(&buf)
	w.Uvarint(uint64(len(c.starts)))
	for i, s := range c.starts {
		w.Varint(int64(s))
		w.Bytes(c.payloads[i])
	}
	return buf.Bytes()
}

// TestRestoreRefusesChainsNoFrameworkSaves edits the checkpoint starts of a
// real saved IC and SIC payload, one rule per row, and checks that Restore
// refuses each edit with that rule's error and leaves the receiver as New
// built it. The unedited payload restores.
func TestRestoreRefusesChainsNoFrameworkSaves(t *testing.T) {
	const n = 200
	cfg := func(sparse bool) Config {
		return Config{K: 3, N: n, L: 10, Beta: 0.2, Sparse: sparse, Oracle: oracle.NewFactory(oracle.SieveStreaming, 0.2, nil)}
	}
	for _, tc := range []struct {
		name   string
		sparse bool
		edit   func(s []stream.ActionID, ws, last, horizon stream.ActionID)
		want   string
	}{
		{"IC/not ascending", false, func(s []stream.ActionID, _, _, _ stream.ActionID) { s[len(s)-1] = s[len(s)-2] }, "not ascending"},
		{"SIC/not ascending", true, func(s []stream.ActionID, _, _, _ stream.ActionID) { s[len(s)-1] = s[len(s)-2] }, "not ascending"},
		{"IC/after last action", false, func(s []stream.ActionID, _, last, _ stream.ActionID) { s[len(s)-1] = last + 1 }, "after the stream's last action"},
		{"SIC/after last action", true, func(s []stream.ActionID, _, last, _ stream.ActionID) { s[len(s)-1] = last + 1 }, "after the stream's last action"},
		{"IC/one before the window", false, func(s []stream.ActionID, ws, _, _ stream.ActionID) { s[0] = ws - 1 }, "the framework keeps 0"},
		{"SIC/two before the window", true, func(s []stream.ActionID, ws, _, _ stream.ActionID) { s[1] = ws - 1 }, "the framework keeps 1"},
		{"SIC/before the horizon", true, func(s []stream.ActionID, _, _, horizon stream.ActionID) { s[0] = horizon - 1 }, "before the stream's horizon"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := MustNew(cfg(tc.sparse))
			feed(t, f, randomActions(3, 1003, 40, 60, 0.7))
			var saved bytes.Buffer
			if err := f.Save(&saved); err != nil {
				t.Fatal(err)
			}
			if err := MustNew(cfg(tc.sparse)).Restore(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatalf("unedited payload: %v", err)
			}
			c := splitSaved(t, saved.Bytes())
			if !slices.Equal(c.starts, f.CheckpointStarts()) {
				t.Fatalf("split starts %v, framework %v", c.starts, f.CheckpointStarts())
			}
			last := f.Stream().Last()
			ws := last - n + 1
			if len(c.starts) < 3 || tc.sparse && (c.starts[0] >= ws-1 || c.starts[1] < ws) {
				t.Fatalf("starts %v around window start %d: the fixture no longer reaches the case", c.starts, ws)
			}
			tc.edit(c.starts, ws, last, f.Stream().Horizon())

			g := MustNew(cfg(tc.sparse))
			fresh := MustNew(cfg(tc.sparse))
			err := g.Restore(bytes.NewReader(c.bytes()))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore(starts %v) = %v, want an error containing %q", c.starts, err, tc.want)
			}
			if g.Stream().Last() != -1 || len(g.cps) != 0 || g.processed != 0 || !reflect.DeepEqual(g.Stats(), fresh.Stats()) {
				t.Fatalf("a refused Restore committed state: last %d, %d checkpoints, %d processed", g.Stream().Last(), len(g.cps), g.processed)
			}
		})
	}
}

// TestRestoreRefusesUnwrittenVersion: a payload one version past the one
// Save writes is refused, and the error names the version.
func TestRestoreRefusesUnwrittenVersion(t *testing.T) {
	cfg := Config{K: 3, N: 200, L: 10, Beta: 0.2, Oracle: oracle.NewFactory(oracle.SieveStreaming, 0.2, nil)}
	f := MustNew(cfg)
	feed(t, f, randomActions(3, 300, 40, 60, 0.7))
	var saved bytes.Buffer
	if err := f.Save(&saved); err != nil {
		t.Fatal(err)
	}
	b := saved.Bytes()
	b[0] = corePayloadVersion + 1 // a one-byte uvarint
	err := MustNew(cfg).Restore(bytes.NewReader(b))
	if want := fmt.Sprintf("version %d", corePayloadVersion+1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Restore: %v, want an error naming %s", err, want)
	}
}

package dataio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stream"
)

func TestNDJSONRoundTrip(t *testing.T) {
	actions := []stream.Action{
		{ID: 1, User: 7, Parent: stream.NoParent},
		{ID: 2, User: 3, Parent: 1},
		{ID: 5, User: 7, Parent: 2},
		{ID: 9, User: 1, Parent: stream.NoParent},
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, actions); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(actions) {
		t.Fatalf("want %d lines, got %d:\n%s", len(actions), got, buf.String())
	}
	var back []stream.Action
	if err := ReadNDJSON(&buf, func(a stream.Action) bool { back = append(back, a); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, actions) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", back, actions)
	}
}

func TestNDJSONOmitsParentForRoots(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, []stream.Action{{ID: 1, User: 2, Parent: stream.NoParent}}); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != `{"id":1,"user":2}` {
		t.Fatalf("root encoding %q, want parent omitted", got)
	}
}

// TestReadNDJSONRecordRules: what one record may and may not say.
func TestReadNDJSONRecordRules(t *testing.T) {
	parse := func(line string) (got stream.Action, err error) {
		err = ReadNDJSON(strings.NewReader(line), func(a stream.Action) bool { got = a; return true })
		return got, err
	}
	cases := []struct {
		line string
		want stream.Action
		ok   bool
	}{
		{`{"id":1,"user":2}`, stream.Action{ID: 1, User: 2, Parent: stream.NoParent}, true},
		{`{"id":1,"user":2,"parent":-1}`, stream.Action{ID: 1, User: 2, Parent: stream.NoParent}, true},
		{`{"id":4,"user":0,"parent":1}`, stream.Action{ID: 4, User: 0, Parent: 1}, true},
		{`{"id":4,"user":0,"parent":-7}`, stream.Action{}, false},
		{`{"id":4,"user":0,"bogus":1}`, stream.Action{}, false},
		{`{"id":"x","user":0}`, stream.Action{}, false},
		{`not json`, stream.Action{}, false},
	}
	for _, c := range cases {
		got, err := parse(c.line)
		if (err == nil) != c.ok {
			t.Errorf("ReadNDJSON(%q) err = %v, want ok=%v", c.line, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ReadNDJSON(%q) = %v, want %v", c.line, got, c.want)
		}
	}
}

func TestReadNDJSONSkipsBlanksAndReportsLine(t *testing.T) {
	in := "{\"id\":1,\"user\":2}\n\n  \n{\"id\":2,\"user\":3,\"parent\":1}\n"
	var n int
	if err := ReadNDJSON(strings.NewReader(in), func(stream.Action) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("want 2 actions, got %d", n)
	}
	bad := "{\"id\":1,\"user\":2}\n{oops}\n"
	err := ReadNDJSON(strings.NewReader(bad), func(stream.Action) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("want record-2 error, got %v", err)
	}
}

func TestReadAutoSniffsNDJSON(t *testing.T) {
	in := `{"id":1,"user":2}` + "\n" + `{"id":3,"user":4,"parent":1}` + "\n"
	got, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []stream.Action{{ID: 1, User: 2, Parent: stream.NoParent}, {ID: 3, User: 4, Parent: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadAuto NDJSON = %v, want %v", got, want)
	}
}

// TestWriteNDJSONSmallBatchAllocation pins the writers' staging cost to the
// size of what they encode: a four-action request body (the trickle-shaped
// call api.Client.Ingest makes per request) must not pay for a fixed
// megabyte buffer. A multi-flush batch must still arrive whole.
func TestWriteNDJSONSmallBatchAllocation(t *testing.T) {
	actions := []stream.Action{
		{ID: 1, User: 7, Parent: stream.NoParent},
		{ID: 2, User: 3, Parent: 1},
		{ID: 5, User: 7, Parent: 2},
		{ID: 9, User: 1, Parent: stream.NoParent},
	}
	named := make([]NamedAction, len(actions))
	for i, a := range actions {
		named[i] = NamedAction{ID: a.ID, User: "u" + strings.Repeat("x", i), Parent: a.Parent}
	}
	var body bytes.Buffer
	for name, write := range map[string]func() error{
		"WriteNDJSON":      func() error { return WriteNDJSON(&body, actions) },
		"WriteNDJSONNamed": func() error { return WriteNDJSONNamed(&body, named) },
	} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body.Reset()
				if err := write(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocedBytesPerOp(); got > 4<<10 {
			t.Errorf("%s of 4 actions allocates %d B per call, want <= 4 KiB", name, got)
		}
	}

	big := make([]stream.Action, 20000) // > ndjsonFlushBytes of output
	for i := range big {
		big[i] = stream.Action{ID: stream.ActionID(i + 1), User: stream.UserID(i % 97), Parent: stream.NoParent}
	}
	body.Reset()
	if err := WriteNDJSON(&body, big); err != nil {
		t.Fatal(err)
	}
	if body.Len() <= ndjsonFlushBytes {
		t.Fatalf("big batch encoded to %d B; it does not cross a flush", body.Len())
	}
	var back []stream.Action
	if err := ReadNDJSON(&body, func(a stream.Action) bool { back = append(back, a); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, big) {
		t.Fatal("multi-flush round trip mismatch")
	}
}

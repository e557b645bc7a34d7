package dataio

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/stream"
)

func sampleActions() []stream.Action {
	return []stream.Action{
		{ID: 1, User: 7, Parent: stream.NoParent},
		{ID: 2, User: 0, Parent: 1},
		{ID: 5, User: 4294967295, Parent: 2}, // max user, gappy ID
		{ID: 9, User: 3, Parent: stream.NoParent},
	}
}

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

// readAll decodes every numeric action in r.
func readAll(r io.Reader) ([]stream.Action, error) {
	var out []stream.Action
	err := ReadNDJSON(r, func(a stream.Action) bool { out = append(out, a); return true })
	return out, err
}

// TestReadNDJSONLiveFeed: on an open pipe, one complete record is visited
// without waiting for more input or EOF, by either decoder — `tail -F log |
// simctl ingest` depends on it.
func TestReadNDJSONLiveFeed(t *testing.T) {
	for _, c := range []struct {
		name, line string
		want       any
		read       func(io.Reader, func(any)) error
	}{
		{"ReadNDJSON", "{\"id\":1,\"user\":7}\n", stream.Action{ID: 1, User: 7, Parent: stream.NoParent},
			func(r io.Reader, visit func(any)) error {
				return ReadNDJSON(r, func(a stream.Action) bool { visit(a); return true })
			}},
		{"ReadNDJSONNamed", "{\"id\":1,\"user\":\"u7\"}\n", NamedAction{ID: 1, User: "u7", Parent: stream.NoParent},
			func(r io.Reader, visit func(any)) error {
				return ReadNDJSONNamed(r, func(a NamedAction) bool { visit(a); return true })
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			pr, pw := io.Pipe()
			got := make(chan any, 1)
			done := make(chan error, 1)
			go func() { done <- c.read(pr, func(a any) { got <- a }) }()
			if _, err := pw.Write([]byte(c.line)); err != nil {
				t.Fatal(err)
			}
			select {
			case a := <-got:
				if a != c.want {
					t.Errorf("%q: visited %+v", c.line, a)
				}
			case <-time.After(500 * time.Millisecond):
				t.Errorf("%q: not visited within 500ms of being written", c.line)
			}
			pw.Close()
			if err := <-done; err != nil {
				t.Errorf("%q: %v", c.line, err)
			}
		})
	}
}

func TestEarlyStop(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, sampleActions()); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ReadNDJSON(&buf, func(stream.Action) bool { n++; return n < 2 }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("visited %d, want 2", n)
	}
}

// TestRoundTripProperty fuzzes random valid streams through the codec.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := gen.Config{Users: 50, Actions: 300, RootProb: 0.4, MeanRespDist: 30, Seed: seed}
		actions := gen.Stream(cfg)
		var nd bytes.Buffer
		if WriteNDJSON(&nd, actions) != nil {
			return false
		}
		got, err := readAll(&nd)
		return err == nil && reflect.DeepEqual(got, actions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReadNDJSONEdgeCases pins ReadNDJSON on awkward inputs: empty bodies,
// CRLF line endings, leading whitespace before the first object, and
// truncation mid-record.
func TestReadNDJSONEdgeCases(t *testing.T) {
	t.Run("empty input", func(t *testing.T) {
		got, err := readAll(strings.NewReader(""))
		if err != nil {
			t.Fatalf("empty input: %v", err)
		}
		if len(got) != 0 {
			t.Fatalf("empty input yielded %d actions", len(got))
		}
	})

	t.Run("whitespace-only input", func(t *testing.T) {
		got, err := readAll(strings.NewReader(" \t\r\n\n  \n"))
		if err != nil {
			t.Fatalf("whitespace-only input: %v", err)
		}
		if len(got) != 0 {
			t.Fatalf("whitespace-only input yielded %d actions", len(got))
		}
	})

	t.Run("CRLF NDJSON", func(t *testing.T) {
		in := "{\"id\":1,\"user\":7}\r\n{\"id\":2,\"user\":8,\"parent\":1}\r\n"
		got, err := readAll(strings.NewReader(in))
		if err != nil {
			t.Fatalf("CRLF NDJSON: %v", err)
		}
		want := []stream.Action{
			{ID: 1, User: 7, Parent: stream.NoParent},
			{ID: 2, User: 8, Parent: 1},
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CRLF NDJSON = %v, want %v", got, want)
		}
	})

	t.Run("leading whitespace before NDJSON object", func(t *testing.T) {
		in := "\r\n\n  \t{\"id\":3,\"user\":1}\n"
		got, err := readAll(strings.NewReader(in))
		if err != nil {
			t.Fatalf("leading whitespace NDJSON: %v", err)
		}
		want := []stream.Action{{ID: 3, User: 1, Parent: stream.NoParent}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("leading whitespace NDJSON = %v, want %v", got, want)
		}
	})

	t.Run("truncated final NDJSON line errors", func(t *testing.T) {
		in := "{\"id\":1,\"user\":7}\n{\"id\":2,\"us"
		_, err := readAll(strings.NewReader(in))
		if err == nil {
			t.Fatal("truncated final NDJSON line accepted")
		}
		if !strings.Contains(err.Error(), "record 2") {
			t.Fatalf("error does not name the truncated record: %v", err)
		}
	})
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

// TestNDJSONMatchesDecoderOnEdgeCases: inputs the fast path must hand to the
// json.Decoder fallback — or must not — read exactly as referenceRead reads
// them, in both modes. Each case also states what the decoder makes of it:
// the actions visited and the start of the error, numeric mode then name
// mode ("" for no error).
func TestNDJSONMatchesDecoderOnEdgeCases(t *testing.T) {
	lines := func(n int) string {
		var b []byte
		for id := 1; id <= n; id++ {
			b = AppendNDJSON(b, []stream.Action{{ID: stream.ActionID(id), User: 1, Parent: stream.NoParent}})
		}
		return string(b)
	}
	const numberUser = "record 1: dataio: bad NDJSON action: json: cannot unmarshal number into Go struct field namedActionJSON.user of type string"
	const stringUser = "record 1: dataio: bad NDJSON action: json: cannot unmarshal string into Go struct field actionJSON.user of type uint32"
	cases := []struct {
		name, in string
		num      int
		numErr   string
		named    int
		namedErr string
	}{
		{"non-canonical line after 1 999 canonical ones", lines(1999) + `{"id":2000,"user":1,"bogus":1}` + "\n",
			1999, `record 2000: dataio: bad NDJSON action: json: unknown field "bogus"`, 0, numberUser},
		{"two objects on one line", lines(2) + `{"id":3,"user":1}{"id":4,"user":1} {"id":5,"user":1}` + "\n" + `{"id":6,"user":1}`,
			6, "", 0, numberUser},
		{"object split across lines", lines(3) + "{\"id\":4,\n\"user\":1\n}\n" + `{"id":5,"user":1}` + "\n",
			5, "", 0, numberUser},
		{"CRLF", "{\"id\":1,\"user\":7}\r\n{\"id\":2,\"user\":8,\"parent\":1}\r\n\r\n",
			2, "", 0, numberUser},
		{"line longer than the buffer", lines(2) + `{"id":3,"user":1}` + strings.Repeat(" ", 5000) + "\n" + `{"id":4,"user":1}` + "\n",
			4, "", 0, numberUser},
		{"name longer than the buffer", `{"id":1,"user":"` + strings.Repeat("n", 5000) + `"}` + "\n" + `{"id":2,"user":"b"}` + "\n",
			0, stringUser, 2, ""},
		{"parent null", `{"id":1,"user":1,"parent":null}` + "\n", 1, "", 0, numberUser},
		{"minus zero", `{"id":-0,"user":1,"parent":-0}` + "\n", 1, "", 0, numberUser},
		{"leading zero", `{"id":01,"user":1}` + "\n",
			0, "record 1: dataio: bad NDJSON action: invalid character '1' after object key:value pair", 0, "record 1: dataio: bad NDJSON action: invalid character '1'"},
		{"user past uint32", `{"id":1,"user":4294967296}` + "\n",
			0, "record 1: dataio: bad NDJSON action: json: cannot unmarshal number 4294967296", 0, numberUser},
		{"parent below -1", lines(1) + `{"id":2,"user":1,"parent":-2}` + "\n", 1, "record 2: dataio: bad parent -2", 0, numberUser},
		{"escaped name", `{"id":1,"user":"a\u00e9\n<"}` + "\n", 0, stringUser, 1, ""},
		{"empty name", `{"id":1,"user":""}` + "\n", 0, stringUser, 0, "record 1: dataio: action 1 has an empty user name"},
		{"truncated", lines(1) + `{"id":2,"us`, 1, "record 2: dataio: bad NDJSON action: unexpected EOF", 0, numberUser},
		{"form feed is not a blank", lines(1) + "\f\n", 1, `record 2: dataio: bad NDJSON action: invalid character '\f'`, 0, numberUser},
		{"invalid UTF-8 name", "{\"id\":1,\"user\":\"a\xffb\"}\n", 0, stringUser, 1, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			matchDecoder(t, []byte(c.in), 1, ReadNDJSON, referenceRead[actionJSON])
			matchDecoder(t, []byte(c.in), 1, ReadNDJSONNamed, referenceRead[namedActionJSON])
			num := decode(ReadNDJSON, strings.NewReader(c.in), 0)
			if len(num.actions) != c.num || !strings.HasPrefix(num.err, c.numErr) || (num.err == "") != (c.numErr == "") {
				t.Errorf("numeric: %d actions, error %q; want %d, %q", len(num.actions), num.err, c.num, c.numErr)
			}
			named := decode(ReadNDJSONNamed, strings.NewReader(c.in), 0)
			if len(named.actions) != c.named || !strings.HasPrefix(named.err, c.namedErr) || (named.err == "") != (c.namedErr == "") {
				t.Errorf("named: %d actions, error %q; want %d, %q", len(named.actions), named.err, c.named, c.namedErr)
			}
		})
	}
}

// TestNDJSONReadErrorsSurvive: an error from the input reaches the caller
// where the decoder alone would report it — after the complete records
// before it — even when the reader would not repeat it. A body cut off by
// http.MaxBytesReader still unwraps to *http.MaxBytesError, which simserve
// and simrouter turn into a 413.
func TestNDJSONReadErrorsSurvive(t *testing.T) {
	var body []byte
	for id := 1; len(body) < 10<<10; id++ {
		body = AppendNDJSON(body, []stream.Action{{ID: stream.ActionID(id), User: 1, Parent: stream.NoParent}})
	}
	capped := func() io.Reader { return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 5000) }
	got, want := decode(ReadNDJSON, capped(), 0), decode(referenceRead[actionJSON], capped(), 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("capped body: got %d actions, %q; decoder %d actions, %q", len(got.actions), got.err, len(want.actions), want.err)
	}
	var tooLarge *http.MaxBytesError
	if err := ReadNDJSON(capped(), func(stream.Action) bool { return true }); !errors.As(err, &tooLarge) {
		t.Fatalf("capped body: %v does not unwrap to *http.MaxBytesError", err)
	}

	errOnce := errors.New("connection reset")
	for _, in := range []string{"", `{"id":1,"user":2}`, `{"id":1,"user":2}` + "\n", `{"id":1,`} {
		failing := func() io.Reader { return io.MultiReader(strings.NewReader(in), &failOnce{err: errOnce}) }
		got, want := decode(ReadNDJSON, failing(), 0), decode(referenceRead[actionJSON], failing(), 0)
		if err := ReadNDJSON(failing(), func(stream.Action) bool { return true }); !errors.Is(err, errOnce) || !reflect.DeepEqual(got, want) {
			t.Errorf("%q then a one-time read error: got %+v, decoder %+v", in, got, want)
		}
	}
}

// failOnce fails its first Read with err and reports EOF after that.
type failOnce struct {
	err    error
	failed bool
}

func (f *failOnce) Read([]byte) (int, error) {
	if f.failed {
		return 0, io.EOF
	}
	f.failed = true
	return 0, f.err
}

// TestNDJSONAllocs pins what the codec allocates per call. Reading a bulk
// body (2 000 numeric actions) takes a few allocations and a few KiB,
// independent of its length (the json.Decoder loop took 3 339 allocations
// and 61 KB); AppendNDJSON into a buffer with room takes none; a trickle body
// (4 named actions) costs no more than the json.Decoder and json.Encoder
// did: 17 allocations and 2 632 B read, 9 and 472 B written.
func TestNDJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	bulk, trickle := bulkActions(), trickleActions()
	var bulk10 []byte
	for range 10 {
		bulk10 = AppendNDJSON(bulk10, bulk)
	}
	trickleBody := AppendNDJSONNamed(nil, trickle)
	scratch := make([]byte, 0, 2*len(AppendNDJSON(nil, bulk)))
	var r bytes.Reader
	var out bytes.Buffer
	cases := []struct {
		name            string
		run             func() error
		maxAllocs, maxB uint64
	}{
		{"ReadNDJSON of 2 000 actions", func() error {
			r.Reset(bulk10[:len(bulk10)/10])
			return ReadNDJSON(&r, func(stream.Action) bool { return true })
		}, 4, 8 << 10},
		{"ReadNDJSON of 20 000 actions", func() error {
			r.Reset(bulk10)
			return ReadNDJSON(&r, func(stream.Action) bool { return true })
		}, 4, 8 << 10},
		{"AppendNDJSON of 2 000 actions into room", func() error {
			scratch = AppendNDJSON(scratch[:0], bulk)
			return nil
		}, 0, 0},
		{"ReadNDJSONNamed of a trickle body", func() error {
			r.Reset(trickleBody)
			return ReadNDJSONNamed(&r, func(NamedAction) bool { return true })
		}, 17, 2632},
		{"WriteNDJSONNamed of a trickle body", func() error {
			out = bytes.Buffer{}
			return WriteNDJSONNamed(&out, trickle)
		}, 9, 472},
	}
	for _, c := range cases {
		const runs = 100
		if err := c.run(); err != nil { // also fills the reader pool
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		allocs, b := (m1.Mallocs-m0.Mallocs)/runs, (m1.TotalAlloc-m0.TotalAlloc)/runs
		t.Logf("%s: %d allocs, %d B per call", c.name, allocs, b)
		if allocs > c.maxAllocs || b > c.maxB {
			t.Errorf("%s: %d allocs, %d B per call; want <= %d and <= %d B", c.name, allocs, b, c.maxAllocs, c.maxB)
		}
	}
}

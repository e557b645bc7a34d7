package dataio

import (
	"bytes"
	"io"
	"reflect"
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

func TestTSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTSV(&buf, sampleActions()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleActions()) {
		t.Fatalf("round trip: %v", got)
	}
}

func TestTSVSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1\t2\t-1\n   \n2\t3\t1\n"
	got, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d actions", len(got))
	}
}

func TestTSVErrorsCarryLineNumbers(t *testing.T) {
	in := "1\t2\t-1\nbad line\n"
	err := ReadTSV(strings.NewReader(in), func(stream.Action) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseTSVLineErrors(t *testing.T) {
	for _, line := range []string{"", "1\t2", "1\t2\t3\t4", "x\t2\t3", "1\ty\t3", "1\t2\tz", "1\t2\t-9"} {
		if _, err := ParseTSVLine(line); err == nil {
			t.Errorf("ParseTSVLine(%q) succeeded", line)
		}
	}
}

func TestReadAutoDetectsBoth(t *testing.T) {
	var nd bytes.Buffer
	if err := WriteNDJSON(&nd, sampleActions()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&nd)
	if err != nil || len(got) != 4 {
		t.Fatalf("auto ndjson: %v %v", got, err)
	}
	var tsv bytes.Buffer
	if err := WriteTSV(&tsv, sampleActions()); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAll(&tsv)
	if err != nil || len(got) != 4 {
		t.Fatalf("auto tsv: %v %v", got, err)
	}
}

// TestReadAutoLiveFeed: on an open pipe, one complete record is visited
// without waiting for more input or EOF, in either format.
func TestReadAutoLiveFeed(t *testing.T) {
	for _, line := range []string{"1\t7\t-1\n", "{\"id\":1,\"user\":7}\n"} {
		pr, pw := io.Pipe()
		got := make(chan stream.Action, 1)
		done := make(chan error, 1)
		go func() {
			done <- ReadAuto(pr, func(a stream.Action) bool { got <- a; return true })
		}()
		if _, err := pw.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		select {
		case a := <-got:
			if a != (stream.Action{ID: 1, User: 7, Parent: stream.NoParent}) {
				t.Errorf("%q: visited %+v", line, a)
			}
		case <-time.After(500 * time.Millisecond):
			t.Errorf("%q: not visited within 500ms of being written", line)
		}
		pw.Close()
		if err := <-done; err != nil {
			t.Errorf("%q: %v", line, err)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTSV(&buf, sampleActions()); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ReadTSV(&buf, func(stream.Action) bool { n++; return n < 2 }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("visited %d, want 2", n)
	}
}

// TestRoundTripProperty fuzzes random valid streams through both formats.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := gen.Config{Users: 50, Actions: 300, RootProb: 0.4, MeanRespDist: 30, Seed: seed}
		actions := gen.Stream(cfg)
		var tsv, nd bytes.Buffer
		if WriteTSV(&tsv, actions) != nil || WriteNDJSON(&nd, actions) != nil {
			return false
		}
		a, err1 := ReadAll(&tsv)
		b, err2 := ReadAll(&nd)
		return err1 == nil && err2 == nil && reflect.DeepEqual(a, actions) && reflect.DeepEqual(b, actions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReadAutoEdgeCases pins the sniffing contract of ReadAuto on awkward
// inputs: empty bodies, CRLF line endings, leading whitespace before the
// first NDJSON object, and truncation mid-record.
func TestReadAutoEdgeCases(t *testing.T) {
	t.Run("empty input", func(t *testing.T) {
		got, err := ReadAll(strings.NewReader(""))
		if err != nil {
			t.Fatalf("empty input: %v", err)
		}
		if len(got) != 0 {
			t.Fatalf("empty input yielded %d actions", len(got))
		}
	})

	t.Run("whitespace-only input", func(t *testing.T) {
		got, err := ReadAll(strings.NewReader(" \t\r\n\n  \n"))
		if err != nil {
			t.Fatalf("whitespace-only input: %v", err)
		}
		if len(got) != 0 {
			t.Fatalf("whitespace-only input yielded %d actions", len(got))
		}
	})

	t.Run("CRLF NDJSON", func(t *testing.T) {
		in := "{\"id\":1,\"user\":7}\r\n{\"id\":2,\"user\":8,\"parent\":1}\r\n"
		got, err := ReadAll(strings.NewReader(in))
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
		got, err := ReadAll(strings.NewReader(in))
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
		_, err := ReadAll(strings.NewReader(in))
		if err == nil {
			t.Fatal("truncated final NDJSON line accepted")
		}
		if !strings.Contains(err.Error(), "record 2") {
			t.Fatalf("error does not name the truncated record: %v", err)
		}
	})

	t.Run("TSV final line without newline", func(t *testing.T) {
		in := "1\t7\t-1\n2\t8\t1" // no trailing newline: still a complete record
		got, err := ReadAll(strings.NewReader(in))
		if err != nil {
			t.Fatalf("unterminated TSV final line: %v", err)
		}
		if len(got) != 2 || got[1].ID != 2 {
			t.Fatalf("unterminated TSV final line = %v", got)
		}
	})

	t.Run("truncated TSV final line errors", func(t *testing.T) {
		in := "1\t7\t-1\n2\t8" // second record lost its parent field
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Fatal("field-truncated TSV final line accepted")
		}
	})
}

package dataio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/stream"
)

// validSnapshot builds a well-formed SIM2 snapshot through the real writer,
// so the fuzz seeds always track the current wire format.
func validSnapshot(tb testing.TB, sections map[string][]byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sw, err := NewSnapshotWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for tag, payload := range sections {
		if err := sw.Section(tag, payload); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotReader throws arbitrary bytes at the SIM2 section reader. The
// invariants: never panic, always terminate, and accept-without-error only
// inputs that end in a proper end marker — plus the round-trip law that a
// snapshot rebuilt from the recovered sections yields those sections again.
func FuzzSnapshotReader(f *testing.F) {
	f.Add(validSnapshot(f, map[string][]byte{"CORE": []byte("abc")}))
	f.Add(validSnapshot(f, map[string][]byte{"CORE": {}, "NAME": []byte("x\x00y")}))
	full := validSnapshot(f, map[string][]byte{"CORE": []byte("payload")})
	f.Add(full[:len(full)-3])                         // torn mid end-marker
	f.Add([]byte("SIM1"))                             // wrong magic
	f.Add([]byte("SIM2"))                             // header only
	f.Add([]byte("SIM2\x01CORE\xff\xff\xff\xff\x7f")) // hostile length claim
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewSnapshotReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		type sec struct {
			tag     string
			payload []byte
		}
		var secs []sec
		for {
			tag, payload, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			secs = append(secs, sec{tag, payload})
		}
		// The input parsed fully: rewriting the recovered sections must
		// round-trip through the reader byte for byte.
		var buf bytes.Buffer
		sw, err := NewSnapshotWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range secs {
			if err := sw.Section(s.tag, s.payload); err != nil {
				t.Fatalf("rewriting accepted section %q: %v", s.tag, err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		rr, err := NewSnapshotReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			tag, payload, err := rr.Next()
			if err == io.EOF {
				if i != len(secs) {
					t.Fatalf("round-trip lost sections: %d != %d", i, len(secs))
				}
				break
			}
			if err != nil {
				t.Fatalf("round-trip section %d: %v", i, err)
			}
			if tag != secs[i].tag || !bytes.Equal(payload, secs[i].payload) {
				t.Fatalf("round-trip section %d: %q/%q != %q/%q", i, tag, payload, secs[i].tag, secs[i].payload)
			}
		}
	})
}

// FuzzSnapshotSections writes random sections through the streaming
// section writer, each payload in random write chunks (Write and
// WriteString mixed), and checks that they read back identical and that
// the image equals the one Section writes from whole payloads. The input
// carves the sections: per section a tag byte, a length byte and a repeat
// byte (so payloads cross the 64 KiB file buffer), then that many payload
// bytes; seed draws the chunk sizes.
func FuzzSnapshotSections(f *testing.F) {
	f.Add([]byte("\x01\x03\x00abc\x02\x00\x00"), uint64(1))
	f.Add([]byte("\x07\x05\xffhello\x07\x01\x40z"), uint64(42))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		type sec struct {
			tag     string
			payload []byte
		}
		var secs []sec
		for len(data) >= 3 {
			tag, n, rep := data[0], min(int(data[1]), len(data)-3), 1+int(data[2])<<4
			secs = append(secs, sec{fmt.Sprintf("S%03d", tag), bytes.Repeat(data[3:3+n], rep)})
			data = data[3+n:]
		}
		rng := rand.New(rand.NewPCG(seed, 0))
		var streamed bytes.Buffer
		sw, err := NewSnapshotWriter(&streamed)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range secs {
			err := sw.WriteSection(s.tag, len(s.payload), func(w io.Writer) error {
				for rest := s.payload; len(rest) > 0; {
					c := rest[:1+rng.IntN(min(len(rest), 1<<17))]
					var err error
					if rng.IntN(2) == 0 {
						_, err = w.Write(c)
					} else {
						_, err = io.WriteString(w, string(c))
					}
					if err != nil {
						return err
					}
					rest = rest[len(c):]
				}
				return nil
			})
			if err != nil {
				t.Fatalf("section %q: %v", s.tag, err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		var whole bytes.Buffer
		ww, _ := NewSnapshotWriter(&whole)
		for _, s := range secs {
			ww.Section(s.tag, s.payload)
		}
		if err := ww.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), whole.Bytes()) {
			t.Fatal("streamed image differs from the one Section writes")
		}
		sr, err := NewSnapshotReader(&streamed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			tag, payload, err := sr.Next()
			if err == io.EOF {
				if i != len(secs) {
					t.Fatalf("read %d sections, wrote %d", i, len(secs))
				}
				break
			}
			if err != nil {
				t.Fatalf("section %d: %v", i, err)
			}
			if tag != secs[i].tag || !bytes.Equal(payload, secs[i].payload) {
				t.Fatalf("section %d: %q (%d bytes) != %q (%d bytes)", i, tag, len(payload), secs[i].tag, len(secs[i].payload))
			}
		}
	})
}

// FuzzReadNDJSON drives both stream decoders — the bytes every POST
// /actions carries — with arbitrary input. Invariants: no panic, and every
// record a decoder accepts, up to its first error, re-encodes and decodes
// back to itself.
func FuzzReadNDJSON(f *testing.F) {
	var nd bytes.Buffer
	if err := WriteNDJSON(&nd, sampleActions()); err != nil {
		f.Fatal(err)
	}
	f.Add(nd.Bytes())
	f.Add([]byte("{\"id\":1,\"user\":2}\n{\"id\":3,\"user\":4,\"parent\":1}\n"))
	f.Add([]byte("1\t2\t-1\n3\t4\t1\n")) // TSV: rejected at record 1
	f.Add([]byte("  \r\n\t {\"id\":9,\"user\":1}\n"))
	f.Add([]byte("{\"id\":1,\"user\":\"alice\"}\n{\"id\":2,\"user\":\"bob\",\"parent\":1}\n"))
	f.Add([]byte("SIM1\x01\x02\x03")) // the retired binary magic
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, ReadNDJSON, WriteNDJSON)
		roundTrip(t, data, ReadNDJSONNamed, WriteNDJSONNamed)
	})
}

// roundTrip decodes data with read, then requires the accepted records to
// survive write and read unchanged.
func roundTrip[A any](t *testing.T, data []byte, read func(io.Reader, func(A) bool) error, write func(io.Writer, []A) error) {
	t.Helper()
	var got []A
	_ = read(bytes.NewReader(data), func(a A) bool { got = append(got, a); return true })
	var buf bytes.Buffer
	if err := write(&buf, got); err != nil {
		t.Fatalf("re-encoding accepted records %+v: %v", got, err)
	}
	var back []A
	if err := read(&buf, func(a A) bool { back = append(back, a); return true }); err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("accepted %+v, re-encoded as %q, decoded back as %+v (err %v)", got, buf.Bytes(), back, err)
	}
}

// referenceRead is the json.Decoder loop that defines the NDJSON language:
// one decoder over the whole input, records numbered from 1. ReadNDJSON and
// ReadNDJSONNamed must visit the same actions and fail with the same text.
func referenceRead[R interface{ action() (A, error) }, A any](r io.Reader, visit func(A) bool) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	for n := 1; ; n++ {
		var rec R
		err := dec.Decode(&rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("record %d: dataio: bad NDJSON action: %w", n, err)
		}
		a, err := rec.action()
		if err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		if !visit(a) {
			return nil
		}
	}
}

// referenceWrite encodes records with one json.Encoder: the bytes
// WriteNDJSON and WriteNDJSONNamed must write.
func referenceWrite[R any](records []R) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range records {
		if err := enc.Encode(rec); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// parentJSON is a record's "parent" field as the json.Encoder writers set
// it: nil, so omitted, for a root.
func parentJSON(p stream.ActionID) *int64 {
	if p == stream.NoParent {
		return nil
	}
	v := int64(p)
	return &v
}

// decoded is what one read of an input yields: the actions visited and
// the error text.
type decoded[A any] struct {
	actions []A
	err     string
}

// decode runs read over r, visiting at most stop actions (all when stop
// is 0).
func decode[A any](read func(io.Reader, func(A) bool) error, r io.Reader, stop int) decoded[A] {
	var d decoded[A]
	if err := read(r, func(a A) bool { d.actions = append(d.actions, a); return len(d.actions) != stop }); err != nil {
		d.err = err.Error()
	}
	return d
}

// canonicalPrefix is about one line buffer of canonical lines, so input
// appended to it straddles the buffer's first refill.
var canonicalPrefix = func() []byte {
	var b []byte
	for id := 1; len(b) < 4000; id++ {
		b = AppendNDJSON(b, []stream.Action{{ID: stream.ActionID(id), User: 3, Parent: stream.ActionID(id - 1)}})
	}
	return b
}()

// matchDecoder fails t unless read and ref agree on data, read whole, in
// one-byte reads, after canonicalPrefix, and stopped after stop actions.
func matchDecoder[A any](t *testing.T, data []byte, stop int, read, ref func(io.Reader, func(A) bool) error) {
	t.Helper()
	inputs := []struct {
		name string
		r    func() io.Reader
	}{
		{"whole", func() io.Reader { return bytes.NewReader(data) }},
		{"one byte per read", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
		{"after a buffer of canonical lines", func() io.Reader {
			return bytes.NewReader(append(append([]byte(nil), canonicalPrefix...), data...))
		}},
	}
	for _, in := range inputs {
		for _, s := range []int{0, stop} {
			got, want := decode(read, in.r(), s), decode(ref, in.r(), s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, stop %d: %q\n got %+v\nwant %+v", in.name, s, data, got, want)
			}
		}
	}
}

// FuzzNDJSONMatchesJSONDecoder: on any input both readers visit the same
// actions and give the same error text as the json.Decoder loop
// (referenceRead), however the input arrives and wherever the visitor
// stops.
func FuzzNDJSONMatchesJSONDecoder(f *testing.F) {
	f.Add([]byte("{\"id\":1,\"user\":2}\n{\"id\":3,\"user\":4,\"parent\":1}\n"), uint8(1))
	f.Add([]byte("{\"id\":1,\"user\":\"alice\"}\r\n\n  \n{\"id\":2,\"user\":\"b\\u00e9\",\"parent\":1}"), uint8(1))
	f.Add([]byte("{\"id\":1,\"user\":2}{\"id\":2,\"user\":3}\n{\"id\":3,\n\"user\":4}\n"), uint8(2))
	f.Add([]byte("{\"id\":-0,\"user\":01}\n{\"id\":2,\"user\":4294967296,\"parent\":null}\n"), uint8(0))
	f.Add([]byte("{\"id\":1,\"user\":\"<&> \",\"parent\":-2}\n{\"ID\":1,\"User\":2}\n"), uint8(0))
	f.Add([]byte("{\"id\":9223372036854775808,\"user\":1}\n{\"id\":-9223372036854775808,\"user\":1}"), uint8(0))
	f.Add([]byte("{\"id\":1,\"user\":\"\xff\"}\n{\"id\":2,\"user\":\"\"}\n"), uint8(0))
	f.Add(append([]byte("{\"id\":1,\"user\":2}"), bytes.Repeat([]byte(" "), 5000)...), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, stop uint8) {
		matchDecoder(t, data, int(stop), ReadNDJSON, referenceRead[actionJSON])
		matchDecoder(t, data, int(stop), ReadNDJSONNamed, referenceRead[namedActionJSON])
	})
}

// FuzzNDJSONWriterBytes: random actions, and names of random bytes, encode
// byte for byte as json.Encoder encodes them (referenceWrite). data carves
// the names, one length byte then that many bytes each; seed draws the IDs.
func FuzzNDJSONWriterBytes(f *testing.F) {
	f.Add([]byte("\x05alice\x03bob"), uint64(1))
	f.Add([]byte{}, uint64(3))
	// One name per byte class json.Encoder escapes, and some it keeps.
	for i, name := range []string{"a<b", ">", "&", "\u2028", "\u2029", "\x00", "\n", "\x1f", `"`, `\`,
		"\xff", "\xed\xa0\x80", "é", "\x7f", "\ufffd", "\U0001F600"} {
		f.Add(append([]byte{byte(len(name))}, name...), uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 0))
		id := func() stream.ActionID {
			switch rng.IntN(4) {
			case 0:
				return stream.ActionID([]int64{math.MinInt64, math.MaxInt64, -2, -1, 0}[rng.IntN(5)])
			case 1:
				return stream.ActionID(rng.Int64() - rng.Int64())
			default:
				return stream.ActionID(rng.IntN(1 << 20))
			}
		}
		var (
			actions []stream.Action
			named   []NamedAction
			recs    []actionJSON
			nrecs   []namedActionJSON
		)
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			name := string(data[1 : 1+n])
			data = data[1+n:]
			a := stream.Action{ID: id(), User: stream.UserID(rng.Uint32()), Parent: id()}
			actions = append(actions, a)
			named = append(named, NamedAction{ID: a.ID, User: name, Parent: a.Parent})
			recs = append(recs, actionJSON{ID: int64(a.ID), User: uint32(a.User), Parent: parentJSON(a.Parent)})
			nrecs = append(nrecs, namedActionJSON{ID: int64(a.ID), User: name, Parent: parentJSON(a.Parent)})
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, actions); err != nil {
			t.Fatal(err)
		}
		if want := referenceWrite(recs); !bytes.Equal(buf.Bytes(), want) || !bytes.Equal(AppendNDJSON(nil, actions), want) {
			t.Fatalf("numeric: wrote %q, json.Encoder writes %q", buf.Bytes(), want)
		}
		buf.Reset()
		if err := WriteNDJSONNamed(&buf, named); err != nil {
			t.Fatal(err)
		}
		if want := referenceWrite(nrecs); !bytes.Equal(buf.Bytes(), want) || !bytes.Equal(AppendNDJSONNamed(nil, named), want) {
			t.Fatalf("named: wrote %q, json.Encoder writes %q", buf.Bytes(), want)
		}
	})
}

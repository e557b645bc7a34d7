package dataio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// buildSnapshot writes a two-section snapshot and returns its bytes.
func buildSnapshot(t *testing.T, sections map[string][]byte, order []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewSnapshotWriter(&buf)
	if err != nil {
		t.Fatalf("NewSnapshotWriter: %v", err)
	}
	for _, tag := range order {
		if err := sw.Section(tag, sections[tag]); err != nil {
			t.Fatalf("Section %q: %v", tag, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func readAllSections(t *testing.T, b []byte) map[string][]byte {
	t.Helper()
	sr, err := NewSnapshotReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewSnapshotReader: %v", err)
	}
	out := map[string][]byte{}
	for {
		tag, payload, err := sr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out[tag] = payload
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := map[string][]byte{
		"AAAA": []byte("alpha payload"),
		"BBBB": {},
		"CCCC": bytes.Repeat([]byte{0xfe}, 1<<15),
	}
	b := buildSnapshot(t, in, []string{"AAAA", "BBBB", "CCCC"})
	out := readAllSections(t, b)
	if len(out) != len(in) {
		t.Fatalf("read %d sections, want %d", len(out), len(in))
	}
	for tag, want := range in {
		if !bytes.Equal(out[tag], want) {
			t.Errorf("section %q payload mismatch (%d vs %d bytes)", tag, len(out[tag]), len(want))
		}
	}
}

// TestSnapshotUnknownSectionSkip is the forward-compatibility contract: a
// reader that does not recognize a tag reads past it and still sees the
// sections it does know.
func TestSnapshotUnknownSectionSkip(t *testing.T) {
	in := map[string][]byte{
		"KNWN": []byte("known"),
		"FUTR": []byte("from a future writer"),
	}
	b := buildSnapshot(t, in, []string{"FUTR", "KNWN"})
	sr, err := NewSnapshotReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewSnapshotReader: %v", err)
	}
	var known []byte
	for {
		tag, payload, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if tag == "KNWN" {
			known = payload
		} // FUTR: skipped by simply not handling it
	}
	if string(known) != "known" {
		t.Fatalf("known section not recovered after skipping unknown one: %q", known)
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	if _, err := NewSnapshotReader(bytes.NewReader([]byte("NOPE....."))); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("bad magic error = %v, want ErrNotSnapshot", err)
	}
	if _, err := NewSnapshotReader(bytes.NewReader(nil)); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("empty input error = %v, want ErrNotSnapshot", err)
	}
}

func TestSnapshotFutureVersionRejected(t *testing.T) {
	b := buildSnapshot(t, map[string][]byte{"AAAA": []byte("x")}, []string{"AAAA"})
	b[4] = 0x7f // bump the uvarint container version far past SnapshotVersion
	if _, err := NewSnapshotReader(bytes.NewReader(b)); err == nil {
		t.Fatal("future container version accepted")
	}
}

func TestSnapshotTruncationDetected(t *testing.T) {
	b := buildSnapshot(t, map[string][]byte{"AAAA": []byte("payload here")}, []string{"AAAA"})
	for _, cut := range []int{1, 5, len(b) - 1, len(b) - 9} {
		trunc := b[:len(b)-cut]
		sr, err := NewSnapshotReader(bytes.NewReader(trunc))
		if err != nil {
			continue // truncated inside the header: also acceptable
		}
		for {
			_, _, err = sr.Next()
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Fatalf("truncation of %d bytes went undetected", cut)
		}
		if !errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncation of %d bytes: error = %v, want ErrSnapshotTruncated/Corrupt", cut, err)
		}
	}
}

func TestSnapshotCRCMismatch(t *testing.T) {
	b := buildSnapshot(t, map[string][]byte{"AAAA": []byte("payload here")}, []string{"AAAA"})
	// Flip a payload byte: header is 4 magic + 1 version; section header is
	// 4 tag + 1 length, so offset 10 sits inside the payload.
	b[10] ^= 0xff
	sr, err := NewSnapshotReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewSnapshotReader: %v", err)
	}
	_, _, err = sr.Next()
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("flipped payload byte: error = %v, want ErrSnapshotCorrupt", err)
	}
}

func TestSnapshotWriterTagValidation(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewSnapshotWriter(&buf)
	if err != nil {
		t.Fatalf("NewSnapshotWriter: %v", err)
	}
	if err := sw.Section("TOOLONG", nil); err == nil {
		t.Fatal("7-byte tag accepted")
	}
	sw2, _ := NewSnapshotWriter(&buf)
	if err := sw2.Section("SEND", nil); err == nil {
		t.Fatal("reserved end tag accepted")
	}
}

// TestWriteSectionFailures pins what a section callback that breaks its
// contract leaves behind: one that writes fewer bytes than it announced,
// more (with or without heeding the error the extra write returns), or
// that fails. The error is sticky — the next section and Close return it —
// and the output does not read back as a snapshot, whether the failure
// came before the file buffer's first flush or after several.
func TestWriteSectionFailures(t *testing.T) {
	boom := errors.New("boom")
	for _, n := range []int{10, 200_000} { // under and over the 64 KiB buffer
		payload := bytes.Repeat([]byte{0xa5}, n+1)
		for _, tc := range []struct {
			name  string
			write func(w io.Writer) error
		}{
			{"short", func(w io.Writer) error {
				_, err := w.Write(payload[:n-1])
				return err
			}},
			{"long", func(w io.Writer) error {
				_, err := w.Write(payload)
				return err
			}},
			{"long-ignored", func(w io.Writer) error {
				w.Write(payload[:n])
				w.Write(payload[:1]) // past n: fails, and the callback ignores it
				return nil
			}},
			{"error", func(w io.Writer) error {
				w.Write(payload[:n/2])
				return boom
			}},
		} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, n), func(t *testing.T) {
				var out bytes.Buffer
				sw, err := NewSnapshotWriter(&out)
				if err != nil {
					t.Fatal(err)
				}
				if err := sw.Section("HEAD", []byte("intact")); err != nil {
					t.Fatal(err)
				}
				err = sw.WriteSection("BODY", n, tc.write)
				if err == nil {
					t.Fatal("WriteSection accepted a broken callback")
				}
				if tc.name == "error" && !errors.Is(err, boom) {
					t.Errorf("WriteSection error %v does not wrap the callback's", err)
				}
				if again := sw.Section("NEXT", nil); again != err {
					t.Errorf("next section: %v, want the sticky %v", again, err)
				}
				if cerr := sw.Close(); cerr != err {
					t.Errorf("Close: %v, want the sticky %v", cerr, err)
				}
				sr, err := NewSnapshotReader(bytes.NewReader(out.Bytes()))
				for err == nil {
					_, _, err = sr.Next()
				}
				if err == io.EOF {
					t.Fatalf("the output of a failed writer (%d bytes) reads back as a snapshot", out.Len())
				}
			})
		}
	}
}

// TestWriteSectionStreams pins that a section's payload reaches the
// underlying writer while the callback is still writing it: at most the
// file buffer's 64 KiB of it is held.
func TestWriteSectionStreams(t *testing.T) {
	const n, chunk = 1 << 20, 4096
	var out bytes.Buffer
	sw, err := NewSnapshotWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	piece := bytes.Repeat([]byte{7}, chunk)
	err = sw.WriteSection("BIG0", n, func(w io.Writer) error {
		for done := 0; done < n; done += chunk {
			if held := 5 + done - out.Len(); held > 1<<16 { // 5: magic and version
				return fmt.Errorf("%d bytes held after writing %d", held, done)
			}
			if _, err := w.Write(piece); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAllSections(t, out.Bytes())["BIG0"]; !bytes.Equal(got, bytes.Repeat(piece, n/chunk)) {
		t.Fatalf("read back %d bytes, not the payload", len(got))
	}
}

// TestOneSectionWalk pins that the snapshot reader and the segment validator
// read the container through the same walk: the same malformed image fails
// both with the same error class. Every image derives from a valid segment
// file, which is also a valid two-section snapshot.
func TestOneSectionWalk(t *testing.T) {
	base := validSegmentBytes(t, segLogs())
	info, err := parseSegment(base)
	if err != nil {
		t.Fatal(err)
	}
	// Layout of base: 4 magic, 1 version, then SGH0 as 4 tag, 1 length byte
	// (the header payload is a few uvarints), payload, 4 CRC.
	const firstTag = 5
	headLen := int(base[firstTag+4])
	headCRC := firstTag + 4 + 1 + headLen
	sections := readAllSections(t, base)
	edit := func(off int, b byte) []byte {
		img := bytes.Clone(base)
		img[off] = b
		return img
	}
	claim := func(n uint64) []byte {
		return binary.AppendUvarint([]byte("SIM2\x01SGH0"), n)
	}
	cases := []struct {
		name  string
		image []byte
		want  string
	}{
		{"valid", base, "ok"},
		{"empty", nil, "not-snapshot"},
		{"bad magic", edit(3, '1'), "not-snapshot"},
		{"newer version", edit(4, 0x7f), "version"},
		{"truncated in version", base[:4], "truncated"},
		{"truncated in tag", base[:firstTag+2], "truncated"},
		{"truncated in length", base[:firstTag+4], "truncated"},
		{"truncated in payload", base[:firstTag+4+1+1], "truncated"},
		{"truncated in CRC", base[:headCRC+2], "truncated"},
		{"truncated in data payload", base[:info.dataOff+info.dataLen/2], "truncated"},
		{"truncated before SEND", base[:len(base)-9], "truncated"},
		{"truncated in SEND", base[:len(base)-3], "truncated"},
		{"claim past the input", claim(1 << 20), "truncated"},
		{"oversize claim", claim(maxSectionBytes + 1), "corrupt"},
		{"flipped payload bit", edit(int(info.dataOff), base[info.dataOff]^0x10), "corrupt"},
		{"flipped CRC bit", edit(headCRC, base[headCRC]^0x01), "corrupt"},
		{"unknown section", buildSnapshot(t, map[string][]byte{
			segHeaderTag: sections[segHeaderTag], "FUTR": []byte("from a future writer"), segDataTag: sections[segDataTag],
		}, []string{segHeaderTag, "FUTR", segDataTag}), "ok"},
		{"bytes after SEND", append(bytes.Clone(base), "trailing"...), "ok"},
	}
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, ErrNotSnapshot):
			return "not-snapshot"
		case errors.Is(err, ErrSnapshotTruncated):
			return "truncated"
		case errors.Is(err, ErrSnapshotCorrupt):
			return "corrupt"
		case strings.Contains(err.Error(), "newer than supported"):
			return "version"
		}
		return err.Error()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sr, err := NewSnapshotReader(bytes.NewReader(tc.image))
			for err == nil {
				_, _, err = sr.Next()
			}
			if err == io.EOF {
				err = nil
			}
			if got := class(err); got != tc.want {
				t.Errorf("SnapshotReader: %s (%v), want %s", got, err, tc.want)
			}
			_, err = parseSegment(tc.image)
			if got := class(err); got != tc.want {
				t.Errorf("parseSegment: %s (%v), want %s", got, err, tc.want)
			}
		})
	}
}

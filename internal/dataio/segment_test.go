package dataio

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/fault"
	"repro/internal/stream"
)

// segLogs is a small spill batch: three descending-recency logs of unequal
// length, covering multi-log offsets within one segment.
func segLogs() [][]stream.Contrib {
	return [][]stream.Contrib{
		{{V: 7, T: 90}, {V: 3, T: 40}, {V: 9, T: 10}},
		{{V: 2, T: 85}},
		{{V: 5, T: 80}, {V: 1, T: 20}},
	}
}

// TestSegmentStoreRoundTrip drives the full lifecycle: write, read every
// extent back, stat, release to zero, GC the file (and its handle) away.
func TestSegmentStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegmentStore(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	logs := segLogs()
	exts, err := st.WriteLogs(logs)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != len(logs) {
		t.Fatalf("got %d extents for %d logs", len(exts), len(logs))
	}
	for i, ext := range exts {
		if ext.MaxT != logs[i][0].T || ext.Count != len(logs[i]) {
			t.Fatalf("extent %d: %+v does not describe log %v", i, ext, logs[i])
		}
		got, err := st.ReadLog(ext, nil)
		if err != nil {
			t.Fatalf("reading extent %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, logs[i]) {
			t.Fatalf("extent %d: read %v, wrote %v", i, got, logs[i])
		}
	}
	if n := st.LiveSegments(); n != 1 {
		t.Fatalf("LiveSegments = %d, want 1", n)
	}
	if _, err := st.Stat(exts[0].Seg); err != nil {
		t.Fatal(err)
	}

	// An extent reaching past the data area must be refused, not read.
	bad := exts[0]
	bad.Count = 1000
	if _, err := st.ReadLog(bad, nil); err == nil {
		t.Fatal("out-of-bounds extent was served")
	}

	for range logs {
		st.Release(exts[0].Seg)
	}
	if n := st.LiveSegments(); n != 0 {
		t.Fatalf("LiveSegments after full release = %d, want 0", n)
	}
	// Retired is not deleted: the file must survive until explicit GC.
	path := filepath.Join(dir, SegmentFileName(exts[0].Seg))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("retired segment file gone before GC: %v", err)
	}
	removed, err := st.GC()
	if err != nil || removed != 1 {
		t.Fatalf("GC = (%d, %v), want (1, nil)", removed, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("segment file survived GC: %v", err)
	}
}

// TestSegmentStoreReopen proves the recovery half of the contract: a fresh
// store over the same directory re-validates the file, serves the same
// extents, and Retain re-adopts them (while unknown IDs fail loudly).
func TestSegmentStoreReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegmentStore(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	logs := segLogs()
	exts, err := st.WriteLogs(logs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenSegmentStore(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// Scanned segments start unreferenced; the snapshot's Retain adopts them.
	if n := st2.LiveSegments(); n != 0 {
		t.Fatalf("reopened store has %d live segments before Retain", n)
	}
	if err := st2.Retain(exts[0].Seg); err != nil {
		t.Fatal(err)
	}
	if err := st2.Retain(exts[0].Seg + 999); err == nil {
		t.Fatal("Retain of unknown segment succeeded")
	}
	for i, ext := range exts {
		got, err := st2.ReadLog(ext, nil)
		if err != nil {
			t.Fatalf("reading extent %d after reopen: %v", i, err)
		}
		if !reflect.DeepEqual(got, logs[i]) {
			t.Fatalf("extent %d after reopen: read %v, wrote %v", i, got, logs[i])
		}
	}
	// A new write must not reuse the recovered ID space.
	more, err := st2.WriteLogs(logs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if more[0].Seg <= exts[0].Seg {
		t.Fatalf("new segment ID %d does not advance past recovered %d", more[0].Seg, exts[0].Seg)
	}
}

// TestSegmentStorePreadPath proves every cold read is an injectable fault
// point that heals: a failed lazy open leaves no handle, a failed read on an
// open handle drops it, and either way the segment stays intact and the next
// ReadLog reads it through a fresh descriptor.
func TestSegmentStorePreadPath(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS())
	st, err := OpenSegmentStore(inj, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	logs := segLogs()
	exts, err := st.WriteLogs(logs)
	if err != nil {
		t.Fatal(err)
	}
	seg := st.segs[exts[0].Seg]
	if seg.f != nil {
		t.Fatal("segment opened before its first read")
	}

	for _, op := range []fault.Op{fault.OpOpen, fault.OpRead} {
		inj.Add(fault.Rule{Op: op, Path: segPrefix, Times: 1, Err: syscall.EIO})
		if _, err := st.ReadLog(exts[0], nil); !errors.Is(err, syscall.EIO) {
			t.Fatalf("ReadLog through an injected %s fault: %v, want EIO", op, err)
		}
		if seg.f != nil {
			t.Fatalf("failed %s left a handle behind", op)
		}
		// The fault healed (times=1): the same extent must now read cleanly,
		// and keeps the handle it opened for the reads that follow.
		for i := range exts {
			got, err := st.ReadLog(exts[i], nil)
			if err != nil {
				t.Fatalf("ReadLog after healed %s fault: %v", op, err)
			}
			if !reflect.DeepEqual(got, logs[i]) {
				t.Fatalf("post-heal read %v, wrote %v", got, logs[i])
			}
		}
		if seg.f == nil {
			t.Fatal("successful reads kept no handle")
		}
	}
}

// TestSegmentStoreWriteFault proves a failed spill write publishes nothing:
// no extent, no segment file, and the next write (disk healed) succeeds.
func TestSegmentStoreWriteFault(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS())
	st, err := OpenSegmentStore(inj, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	inj.Add(fault.Rule{Op: fault.OpWrite, Path: segPrefix, Times: 1, Err: syscall.ENOSPC, ShortWrite: true})
	logs := segLogs()
	if _, err := st.WriteLogs(logs); err == nil {
		t.Fatal("WriteLogs succeeded through an injected short write")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == segSuffix {
			t.Fatalf("failed spill published segment file %s", e.Name())
		}
	}
	exts, err := st.WriteLogs(logs)
	if err != nil {
		t.Fatalf("WriteLogs after heal: %v", err)
	}
	got, err := st.ReadLog(exts[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, logs[2]) {
		t.Fatalf("post-heal read %v, wrote %v", got, logs[2])
	}
}

// TestSegmentStoreQuarantine covers boot over a damaged spill directory: a
// corrupted segment is quarantined (Retain fails instead of serving bad
// bytes), leftover *.tmp files from a torn spill are cleared, and GC deletes
// the quarantined file.
func TestSegmentStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegmentStore(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	exts, err := st.WriteLogs(segLogs())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of the file: some section CRC must fail.
	path := filepath.Join(dir, SegmentFileName(exts[0].Seg))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, SegmentFileName(exts[0].Seg)+".9.tmp")
	if err := os.WriteFile(torn, raw[:7], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenSegmentStore(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn .tmp file survived reopen: %v", err)
	}
	if err := st2.Retain(exts[0].Seg); err == nil {
		t.Fatal("Retain adopted a corrupted segment")
	}
	removed, err := st2.GC()
	if err != nil || removed != 1 {
		t.Fatalf("GC = (%d, %v), want quarantined file removed", removed, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("quarantined segment survived GC: %v", err)
	}
}

// validSegmentBytes builds a well-formed segment file through the real
// writer, so fuzz seeds always track the current layout.
func validSegmentBytes(tb testing.TB, logs [][]stream.Contrib) []byte {
	tb.Helper()
	dir := tb.TempDir()
	st, err := OpenSegmentStore(fault.OS(), dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	exts, err := st.WriteLogs(logs)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, SegmentFileName(exts[0].Seg)))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestParseSegmentRefusesUnwrittenVersion: a segment whose header is one
// layout version past the one WriteLogs writes is refused as corrupt, and
// the error names the version.
func TestParseSegmentRefusesUnwrittenVersion(t *testing.T) {
	sections := readAllSections(t, validSegmentBytes(t, segLogs()))
	header := bytes.Clone(sections[segHeaderTag])
	header[0] = segFormatVersion + 1 // a one-byte uvarint
	sections[segHeaderTag] = header
	_, err := parseSegment(buildSnapshot(t, sections, []string{segHeaderTag, segDataTag}))
	if want := fmt.Sprintf("version %d", segFormatVersion+1); !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("parseSegment: %v, want a corrupt-snapshot error naming %s", err, want)
	}
}

// FuzzSegment throws arbitrary bytes at the segment validator — the
// hardening boundary every cold byte crosses before extent reads trust
// offsets arithmetically. Invariants: never panic, always terminate, and an
// accepted image must be internally consistent: the data window lies within
// the input, its stored CRC matches its bytes, and the entry count matches
// the window exactly.
func FuzzSegment(f *testing.F) {
	full := validSegmentBytes(f, segLogs())
	f.Add(full)
	f.Add(validSegmentBytes(f, [][]stream.Contrib{{{V: 1, T: 1}}}))
	f.Add(full[:len(full)-3]) // torn mid end-marker
	f.Add(full[:len(full)/2]) // torn mid data
	tamper := bytes.Clone(full)
	tamper[len(tamper)/2] ^= 0x01
	f.Add(tamper)                                     // flipped data bit
	f.Add([]byte("SIM1"))                             // wrong magic
	f.Add([]byte("SIM2"))                             // header only
	f.Add([]byte("SIM2\x01SGH0\xff\xff\xff\xff\x7f")) // hostile length claim
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := parseSegment(data)
		if err != nil {
			return
		}
		if info.dataOff < 0 || info.dataLen < 0 || info.dataOff+info.dataLen > int64(len(data)) {
			t.Fatalf("accepted data window [%d,+%d) outside %d input bytes", info.dataOff, info.dataLen, len(data))
		}
		if int64(info.entryCount)*segEntryBytes != info.dataLen {
			t.Fatalf("accepted %d entries for %d data bytes", info.entryCount, info.dataLen)
		}
		payload := data[info.dataOff : info.dataOff+info.dataLen]
		if got := crc32.Checksum(payload, snapshotCRC); got != info.dataCRC {
			t.Fatalf("accepted image whose data bytes hash %08x against stored %08x", got, info.dataCRC)
		}
	})
}

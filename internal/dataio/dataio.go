// Package dataio reads and writes social action streams in the repository's
// interchange formats:
//
//   - TSV: one action per line, "id<TAB>user<TAB>parent" with parent −1 for
//     roots. Human-inspectable; produced by simgen and consumed by simtrack.
//   - NDJSON: one {"id":…,"user":…,"parent":…} object per line ("parent"
//     omitted for roots) — the ingest body format of the simserve HTTP API.
//
// Both formats stream: readers deliver actions through a callback without
// materializing the whole dataset, and ReadAuto sniffs the format from the
// first bytes ('{' for NDJSON, else TSV).
package dataio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/stream"
)

// WriteTSV writes actions in the TSV format.
func WriteTSV(w io.Writer, actions []stream.Action) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, a := range actions {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\n", a.ID, a.User, a.Parent); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseTSVLine parses one TSV action line.
func ParseTSVLine(line string) (stream.Action, error) {
	parts := strings.Split(strings.TrimSpace(line), "\t")
	if len(parts) != 3 {
		return stream.Action{}, fmt.Errorf("dataio: want 3 tab-separated fields, got %d", len(parts))
	}
	id, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return stream.Action{}, fmt.Errorf("dataio: bad id: %w", err)
	}
	user, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 32)
	if err != nil {
		return stream.Action{}, fmt.Errorf("dataio: bad user: %w", err)
	}
	parent, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
	if err != nil {
		return stream.Action{}, fmt.Errorf("dataio: bad parent: %w", err)
	}
	if parent < -1 {
		return stream.Action{}, fmt.Errorf("dataio: bad parent %d", parent)
	}
	return stream.Action{ID: stream.ActionID(id), User: stream.UserID(user), Parent: stream.ActionID(parent)}, nil
}

// ReadTSV streams actions from TSV input to visit, stopping early if visit
// returns false. Blank lines and lines starting with '#' are skipped.
func ReadTSV(r io.Reader, visit func(stream.Action) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if s := strings.TrimSpace(line); s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		a, err := ParseTSVLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !visit(a) {
			return nil
		}
	}
	return sc.Err()
}

// ReadAuto sniffs the format ('{' for NDJSON, else TSV) and streams the
// actions. The NDJSON sniff skips leading whitespace — blank or
// CRLF-terminated lines before the first object are legal inter-value
// whitespace, so a body that starts with them is still NDJSON. Empty input
// is zero actions in any format and succeeds.
func ReadAuto(r io.Reader, visit func(stream.Action) bool) error {
	br := bufio.NewReaderSize(r, 1<<20)
	// Peek one byte further at a time, so a live feed is decided by its
	// first payload byte instead of waiting for a full sniff window. 512
	// bytes of pure whitespace before any payload byte means the input is
	// effectively blank whatever the format; TSV handles that as zero
	// actions.
	for n := 1; n <= 512; n++ {
		head, _ := br.Peek(n)
		if len(head) < n {
			break
		}
		switch head[n-1] {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return ReadNDJSON(br, visit)
		}
		break
	}
	return ReadTSV(br, visit)
}

// ReadAll materializes every action from r (auto-detected format).
func ReadAll(r io.Reader) ([]stream.Action, error) {
	var out []stream.Action
	err := ReadAuto(r, func(a stream.Action) bool {
		out = append(out, a)
		return true
	})
	return out, err
}

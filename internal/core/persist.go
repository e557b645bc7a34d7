package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/oracle"
	"repro/internal/stream"
	"repro/internal/wire"
)

// corePayloadVersion versions the Framework payload independently of the
// SIM2 container that carries it.
const corePayloadVersion = 1

// Save serializes the framework's complete mutable state: the shared stream
// index, the live checkpoint chain (each checkpoint's start plus its
// oracle's full state through oracle.Persistent) and the maintenance
// counters. Together with an identical Config this is everything needed to
// resume processing with bit-identical results — the IC/SIC checkpoint
// chain snapshot of the durable-tracker contract.
//
// Save fails if the configured oracle does not implement oracle.Persistent.
// Configuration (K, N, L, Beta, the oracle factory) is deliberately
// not serialized: Restore targets a Framework freshly built from the same
// Config, and the caller (sim.Tracker.SaveTo) records and validates the
// config scalars at its own layer.
func (f *Framework) Save(w io.Writer) error {
	ww := wire.NewWriter(w)
	ww.Uvarint(corePayloadVersion)

	// The stream's and each checkpoint's payloads are length-prefixed so
	// Restore can hand each layer an exactly delimited reader (layer
	// decoders must not over-read shared input). The stream's, the largest
	// by far, is sized arithmetically (stream.PayloadSize) and then written
	// through a small pooled buffer, which gathers its varints into writes
	// of a few KiB. Each checkpoint's is built in one pooled scratch buffer,
	// then copied out: no more than the largest of them is ever held, and
	// the snapshot's sizing pass and writing pass (sim.Tracker.SaveTo) share
	// the buffer.
	n, err := f.st.PayloadSize()
	if err != nil {
		return fmt.Errorf("core: saving stream: %w", err)
	}
	ww.Uvarint(uint64(n))
	if ww.Err() == nil {
		bw := streamWriters.Get().(*bufio.Writer)
		bw.Reset(w)
		err := f.st.Save(bw)
		if err == nil {
			err = bw.Flush()
		}
		bw.Reset(nil)
		streamWriters.Put(bw)
		if err != nil {
			return fmt.Errorf("core: saving stream: %w", err)
		}
	}

	ww.Varint(f.processed)
	ww.Varint(int64(f.lastCpStart))
	ww.Varint(f.cpCreated)
	ww.Varint(f.cpDeleted)
	ww.Varint(f.cpSamples)
	ww.Varint(f.elemFed)

	ww.Uvarint(uint64(len(f.cps)))
	buf := saveScratch.Get().(*bytes.Buffer)
	defer saveScratch.Put(buf)
	ow := wire.NewWriter(buf) // a bytes.Buffer write cannot fail: no sticky error
	for _, cp := range f.cps {
		p, ok := cp.oracle.(oracle.Persistent)
		if !ok {
			return fmt.Errorf("core: oracle %T does not implement oracle.Persistent", cp.oracle)
		}
		buf.Reset()
		if err := p.SaveState(ow); err != nil {
			return fmt.Errorf("core: saving checkpoint at %d: %w", cp.start, err)
		}
		ww.Varint(int64(cp.start))
		ww.Bytes(buf.Bytes())
	}
	return ww.Err()
}

// saveScratch holds Save's checkpoint payload buffers, streamWriters the
// buffers the stream payload passes through.
var (
	saveScratch   = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	streamWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 4096) }}
)

// Restore replaces the receiver's state with one saved by Save. The
// receiver must be freshly constructed by New with a Config equivalent to
// the saving framework's (same K, N, L, Beta, Sparse, ByTime and an Oracle
// factory producing the same oracle kind with the same weights).
//
// A checkpoint chain no framework saves is an error, not state: starts that
// do not strictly ascend, a start after the stream's last action, more
// starts before the window start than expire keeps (none under IC, Λ[x0]
// under SIC), and a first start before the stream's horizon, which
// ProcessBatch never advances past the oldest checkpoint.
func (f *Framework) Restore(r io.Reader) error {
	rr := wire.NewReader(r)
	if v := rr.Uvarint(); rr.Err() == nil && v != corePayloadVersion {
		return fmt.Errorf("core: unsupported payload version %d", v)
	}

	streamPayload := rr.Bytes(wire.MaxLen)
	if err := rr.Err(); err != nil {
		return fmt.Errorf("core: restoring: %w", err)
	}
	st, err := stream.Restore(bytes.NewReader(streamPayload), f.cfg.Cold, f.cfg.ColdBudget)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}

	processed := rr.Varint()
	lastCpStart := stream.ActionID(rr.Varint())
	cpCreated := rr.Varint()
	cpDeleted := rr.Varint()
	cpSamples := rr.Varint()
	elemFed := rr.Varint()

	n := rr.Len(wire.MaxLen)
	cps := make([]*checkpoint, 0, min(n, 1<<16))
	ws, expired, keep := st.Last()-stream.ActionID(f.cfg.N)+1, 0, 0
	if f.cfg.Sparse {
		keep = 1
	}
	for i := 0; i < n && rr.Err() == nil; i++ {
		start := stream.ActionID(rr.Varint())
		payload := rr.Bytes(wire.MaxLen)
		if rr.Err() != nil {
			break
		}
		if start < ws {
			expired++
		}
		switch {
		case i > 0 && start <= cps[i-1].start:
			return fmt.Errorf("core: checkpoint starts %d then %d: not ascending", cps[i-1].start, start)
		case start > st.Last():
			return fmt.Errorf("core: checkpoint at %d after the stream's last action %d", start, st.Last())
		case expired > keep:
			return fmt.Errorf("core: %d checkpoints start before the window start %d, the framework keeps %d", expired, ws, keep)
		case i == 0 && start < st.Horizon():
			return fmt.Errorf("core: checkpoint at %d before the stream's horizon %d", start, st.Horizon())
		}
		orc := f.cfg.Oracle(f.cfg.K)
		p, ok := orc.(oracle.Persistent)
		if !ok {
			return fmt.Errorf("core: oracle %T does not implement oracle.Persistent", orc)
		}
		if err := p.RestoreState(wire.NewReader(bytes.NewReader(payload))); err != nil {
			return fmt.Errorf("core: restoring checkpoint at %d: %w", start, err)
		}
		cps = append(cps, &checkpoint{start: start, oracle: orc})
	}
	if err := rr.Err(); err != nil {
		return fmt.Errorf("core: restoring: %w", err)
	}

	// Commit only after the whole payload decoded: a failed Restore leaves
	// the receiver's (empty) state untouched rather than half-replaced.
	f.st = st
	f.cps = cps
	f.processed = processed
	f.lastCpStart = lastCpStart
	f.cpCreated = cpCreated
	f.cpDeleted = cpDeleted
	f.cpSamples = cpSamples
	f.elemFed = elemFed
	return nil
}

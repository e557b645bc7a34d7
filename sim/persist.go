package sim

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/dataio"
	"repro/internal/wire"
)

// SIM2 section tags written by SaveTo. Unknown tags encountered by Load are
// skipped — the forward-compatibility rule that lets a newer writer add
// sections without breaking an older reader.
const (
	sectionConfig = "CFG0" // configuration scalars, validated against Load's Config
	sectionCore   = "CORE" // framework state: stream index + checkpoint chain
)

// Section is an extra SIM2 section beside the tracker's own, for state kept
// next to the tracker that must be exactly as current as the snapshot (the
// serving layer's name table): SaveTo writes it behind them, and Load hands
// its payload back in the same pass that restores the tracker.
type Section struct {
	Tag string // 4 bytes, neither CFG0 nor CORE
	// Write writes the payload. SaveTo calls it twice, to size the payload
	// and then to write it, and it must write the same bytes both times.
	Write func(w io.Writer) error
	// Read receives the payload of the snapshot's section with this tag;
	// Load fails with its error. It is not called when the snapshot has no
	// such section.
	Read func(payload []byte) error
}

// simConfigVersion versions the CFG0 payload.
const simConfigVersion = 1

// SaveTo writes a durable snapshot of the tracker — configuration echo,
// stream index and the full IC/SIC checkpoint chain with every oracle's
// state, then the extra sections — as a SIM2 container (internal/dataio:
// versioned header, CRC per section, length-prefixed sections that unknown
// readers can skip).
//
// Every section is written in two passes: one into a writer that only
// counts, for the length that prefixes it, and one through the container's
// file buffer. No buffer ever holds a whole section, so what SaveTo
// allocates is scratch of at most one checkpoint's payload, far below the
// snapshot's size.
//
// A tracker restored from it by Load and fed the rest of the stream produces
// bit-identical Seeds, Value and CheckpointStarts to one that was never
// interrupted. SaveTo does not mutate observable state and may be called at
// any point between Process calls.
func (t *Tracker) SaveTo(w io.Writer, extra ...Section) error {
	sw, err := dataio.NewSnapshotWriter(w)
	if err != nil {
		return err
	}
	secs := append([]Section{{Tag: sectionConfig, Write: t.saveConfig}, {Tag: sectionCore, Write: t.fw.Save}}, extra...)
	for _, sec := range secs {
		n, err := wire.Size(sec.Write)
		if err != nil {
			return err
		}
		if err := sw.WriteSection(sec.Tag, n, sec.Write); err != nil {
			return err
		}
	}
	return sw.Close()
}

// saveConfig writes the CFG0 payload: the configuration scalars Load
// checks.
func (t *Tracker) saveConfig(w io.Writer) error {
	cw := wire.NewWriter(w)
	fc := t.fw.Config()
	cw.Uvarint(simConfigVersion)
	cw.Int(fc.K)
	cw.Int(fc.N)
	cw.Int(fc.L)
	cw.F64(fc.Beta)
	fwk := IC
	if fc.Sparse {
		fwk = SIC
	}
	cw.Int(int(fwk))
	cw.Int(int(t.orc))
	cw.Bool(fc.ByTime)
	cw.Bool(t.filter != nil)
	cw.Bool(t.weighted)
	return cw.Err()
}

// Load reconstructs a tracker from a snapshot written by SaveTo. cfg must
// describe the same query the snapshot was taken under — K, WindowSize,
// Slide, Beta, Framework, Oracle, TimeBased and the presence of Weights are
// validated against the snapshot and a mismatch is an error. Weights and
// Filter themselves cannot be serialized (they are arbitrary Go values);
// the caller supplies them again via cfg, and supplying different ones than
// at save time yields undefined results. BatchSize, ExpectedUsers and
// MemoryBudgetBytes are runtime knobs: they may differ freely from the
// saving configuration without changing the restored state (a different
// BatchSize groups the actions that follow differently).
//
// Each section of the snapshot whose tag matches one of extra goes to that
// Section's Read; every other tag is skipped.
//
// The returned tracker owns an open segment store when cfg.SpillDir is set,
// exactly as if built by New; release it with Close. A failed Load closes
// the store itself.
func Load(r io.Reader, cfg Config, extra ...Section) (*Tracker, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := t.load(r, extra); err != nil {
		if t.store != nil {
			t.store.Close()
		}
		return nil, err
	}
	return t, nil
}

// load applies the snapshot's sections to a freshly built tracker, and hands
// the extra ones to their readers.
func (t *Tracker) load(r io.Reader, extra []Section) error {
	sr, err := dataio.NewSnapshotReader(r)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	var sawConfig, sawCore bool
	for {
		tag, payload, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		switch tag {
		case sectionConfig:
			if err := t.checkConfigSection(payload); err != nil {
				return err
			}
			sawConfig = true
		case sectionCore:
			// The config echo guards the core decode: refuse to interpret
			// oracle state under a mismatched configuration.
			if !sawConfig {
				return fmt.Errorf("sim: snapshot %s section precedes %s", sectionCore, sectionConfig)
			}
			if err := t.fw.Restore(bytes.NewReader(payload)); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
			sawCore = true
		default:
			// A caller's extra section, or an unknown one from a newer
			// writer: skipped unless the caller reads it.
			for _, sec := range extra {
				if sec.Tag == tag && sec.Read != nil {
					if err := sec.Read(payload); err != nil {
						return err
					}
				}
			}
		}
	}
	if !sawConfig || !sawCore {
		return fmt.Errorf("sim: snapshot is missing required sections (config=%v, core=%v)", sawConfig, sawCore)
	}
	return nil
}

// checkConfigSection validates the snapshot's configuration echo against
// the tracker's own (defaults applied) configuration.
func (t *Tracker) checkConfigSection(payload []byte) error {
	r := wire.NewReader(bytes.NewReader(payload))
	if v := r.Uvarint(); r.Err() == nil && v != simConfigVersion {
		return fmt.Errorf("sim: unsupported snapshot config version %d", v)
	}
	var (
		k       = r.Int()
		n       = r.Int()
		l       = r.Int()
		beta    = r.F64()
		fwk     = Framework(r.Int())
		orc     = Oracle(r.Int())
		byTime  = r.Bool()
		_       = r.Bool() // filter presence: informational (filters don't alter saved state)
		weights = r.Bool()
	)
	if err := r.Err(); err != nil {
		return fmt.Errorf("sim: reading snapshot config: %w", err)
	}
	fc := t.fw.Config()
	have := IC
	if fc.Sparse {
		have = SIC
	}
	switch {
	case k != fc.K:
		return fmt.Errorf("sim: snapshot has K=%d, config has K=%d", k, fc.K)
	case n != fc.N:
		return fmt.Errorf("sim: snapshot has WindowSize=%d, config has %d", n, fc.N)
	case l != fc.L:
		return fmt.Errorf("sim: snapshot has Slide=%d, config has %d", l, fc.L)
	case beta != fc.Beta:
		return fmt.Errorf("sim: snapshot has Beta=%v, config has %v", beta, fc.Beta)
	case fwk != have:
		return fmt.Errorf("sim: snapshot has Framework=%v, config has %v", fwk, have)
	case orc != t.orc:
		return fmt.Errorf("sim: snapshot has Oracle=%v, config has %v", orc, t.orc)
	case byTime != fc.ByTime:
		return fmt.Errorf("sim: snapshot has TimeBased=%v, config has %v", byTime, fc.ByTime)
	case weights != t.weighted:
		return fmt.Errorf("sim: snapshot weights presence (%v) does not match config (%v)", weights, t.weighted)
	}
	return nil
}

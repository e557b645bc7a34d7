package stream

// IngestBatch is the ingestion entry: it appends actions in order, updating
// the diffusion index and contribution logs, and returns one Delta per
// ingested action for the caller to feed to checkpoint oracles. The
// Contributors and Prev slices of the returned Deltas stay valid together —
// they are sub-slices of two parallel arenas owned by the Stream — until the
// next Ingest or IngestBatch call. That is what lets a caller ingest a whole
// batch first and amortize downstream work (oracle feeding, window advance,
// checkpoint maintenance) over it.
//
// It is also the one place the stream-order rule is checked: IDs strictly
// increase and a parent precedes its child. Ingestion stops at the first
// action that breaks it and returns ErrNonMonotonicID or ErrBadParent
// together with the Deltas of the actions before it, which are ingested; the
// offender and everything behind it are not.
func (s *Stream) IngestBatch(actions []Action) ([]Delta, error) {
	s.coldMiss = s.coldMiss[:0]
	s.batchArena = s.batchArena[:0]
	s.batchPrev = s.batchPrev[:0]
	s.batchOffs = s.batchOffs[:0]
	s.deltaBuf = s.deltaBuf[:0]
	var err error
	for _, a := range actions {
		if a.ID <= s.last {
			err = ErrNonMonotonicID
		} else if !a.Root() && a.Parent >= a.ID {
			err = ErrBadParent
		}
		if err != nil {
			break
		}
		s.batchOffs = append(s.batchOffs, len(s.batchArena))
		s.deltaBuf = append(s.deltaBuf, Delta{Action: a, Depth: s.ingest(a)})
	}
	// Slice the arenas only after the last append: growth may have moved them.
	s.batchOffs = append(s.batchOffs, len(s.batchArena))
	for i := range s.deltaBuf {
		lo, hi := s.batchOffs[i], s.batchOffs[i+1]
		s.deltaBuf[i].Contributors = s.batchArena[lo:hi]
		s.deltaBuf[i].Prev = s.batchPrev[lo:hi]
	}
	return s.deltaBuf, err
}

// Ingest is IngestBatch for one action: it returns that action's Delta, or
// the order error with the stream untouched.
func (s *Stream) Ingest(a Action) (Delta, error) {
	ds, err := s.IngestBatch([]Action{a})
	if err != nil {
		return Delta{}, err
	}
	return ds[0], nil
}

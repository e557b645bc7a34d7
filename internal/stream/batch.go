package stream

// IngestBatch appends a batch of actions in one call, equivalent to calling
// Ingest for each action in order but returning every action's Delta at
// once. Unlike Ingest's single reused buffer, the Contributors and Prev
// slices of the returned Deltas stay valid together — they are sub-slices of
// two parallel arenas owned by the Stream — until the next Ingest or
// IngestBatch call. That is what lets a caller ingest a whole batch first and
// amortize downstream work (oracle feeding, window advance, checkpoint
// maintenance) over it.
//
// The batch is validated up front: on error (non-monotonic IDs or a bad
// parent reference anywhere in the batch) the stream is left untouched.
func (s *Stream) IngestBatch(actions []Action) ([]Delta, error) {
	last := s.last
	for _, a := range actions {
		if a.ID <= last {
			return nil, ErrNonMonotonicID
		}
		if !a.Root() && a.Parent >= a.ID {
			return nil, ErrBadParent
		}
		last = a.ID
	}

	s.coldMiss = s.coldMiss[:0]
	s.batchArena = s.batchArena[:0]
	s.batchPrev = s.batchPrev[:0]
	s.batchOffs = s.batchOffs[:0]
	s.deltaBuf = s.deltaBuf[:0]
	for _, a := range actions {
		s.batchOffs = append(s.batchOffs, len(s.batchArena))
		arena, prevs, depth, err := s.ingest(a, s.batchArena, s.batchPrev)
		if err != nil {
			// Unreachable: the up-front sweep already validated the batch.
			return nil, err
		}
		s.batchArena, s.batchPrev = arena, prevs
		s.deltaBuf = append(s.deltaBuf, Delta{Action: a, Depth: depth})
	}
	// Slice the arenas only after the last append: growth may have moved them.
	for i := range s.deltaBuf {
		end := len(s.batchArena)
		if i+1 < len(s.batchOffs) {
			end = s.batchOffs[i+1]
		}
		s.deltaBuf[i].Contributors = s.batchArena[s.batchOffs[i]:end]
		s.deltaBuf[i].Prev = s.batchPrev[s.batchOffs[i]:end]
	}
	return s.deltaBuf, nil
}

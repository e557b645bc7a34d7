// Package stream implements the social action stream substrate of the SIM
// (Stream Influence Maximization) problem: time-sequenced actions forming
// diffusion trees, sliding-window expiry, and incremental maintenance of
// per-user influence sets for arbitrary suffixes of the window.
//
// The central structure is Stream, which ingests actions in timestamp order
// (IngestBatch, the one ingestion entry and the one place that order is
// checked; Ingest is its one-action form) and answers "which users does u
// influence, counting only actions at time >= s" for any start s that is
// still within the retention horizon. This is
// exactly the query a checkpoint oracle created at time s needs (paper §4.2,
// Set-Stream Mapping), and sharing one index across all checkpoints is what
// keeps the IC framework's memory linear in the window size instead of
// quadratic.
package stream

import (
	"errors"
	"fmt"
)

// UserID identifies a user in the social network.
type UserID uint32

// ActionID is the timestamp / sequence number of an action. The stream model
// is sequence-based (paper §3): IDs are strictly increasing and an action's
// parent always has a smaller ID.
type ActionID int64

// NoParent marks a root action, one that does not respond to any earlier
// action (denoted <u, nil> in the paper).
const NoParent ActionID = -1

// Action is one element of a social stream: user User performs an action at
// time ID in response to the earlier action Parent (or NoParent for roots).
// Typical instantiations are a retweet on Twitter, a reply on Reddit or a
// comment on Facebook.
type Action struct {
	ID     ActionID
	User   UserID
	Parent ActionID
}

// Root reports whether the action does not respond to any earlier action.
func (a Action) Root() bool { return a.Parent == NoParent }

// String renders the action in the paper's <u, a_t'>_t notation.
func (a Action) String() string {
	if a.Root() {
		return fmt.Sprintf("<u%d, nil>_%d", a.User, a.ID)
	}
	return fmt.Sprintf("<u%d, a%d>_%d", a.User, a.Parent, a.ID)
}

// Errors returned by Stream.IngestBatch and Stream.Ingest.
var (
	// ErrNonMonotonicID is returned when an ingested action's ID is not
	// strictly greater than all previously ingested IDs.
	ErrNonMonotonicID = errors.New("stream: action IDs must be strictly increasing")
	// ErrBadParent is returned when an action references itself or a
	// future action as its parent.
	ErrBadParent = errors.New("stream: parent must precede the action")
)

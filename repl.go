package dkclique

import (
	"context"

	"repro/internal/repl"
	"repro/internal/serve"
)

// ReplPrimaryOptions tunes AttachPrimary. It has no fields: the
// primary installs followers from the service's latest checkpoint and
// keeps history back to it, so ServiceOptions.CheckpointEvery bounds
// the history.
type ReplPrimaryOptions = repl.PrimaryOptions

// ReplPrimary is the log-shipping side of replication: attached to a
// Service it records every applied batch and canonicalization boundary,
// and serves catch-up streams (checkpoint install + WAL suffix) to
// followers over the frame transport. It implements the frame server's
// ReplHandler, so wiring replication into a serving process is
// AttachPrimary + framesrv.Options{Repl: p}. Detach with Close.
type ReplPrimary = repl.Primary

// ReplFollowerOptions configures NewReplFollower: the primary's
// frame-transport address, an optional durable directory (stream resume
// across restarts), reconnect backoff bounds and the readiness lag
// bound.
type ReplFollowerOptions = repl.FollowerOptions

// ReplFollower consumes a primary's replication stream into a local
// follower-mode service whose snapshots are byte-identical to the
// primary's at every applied version. Run drives the stream
// (reconnecting with backoff); Front serves reads across reinstalls;
// local writes are refused with ErrNotPrimary.
type ReplFollower = repl.Follower

// ReplFollowerStatus is a point-in-time view of a follower's
// replication state: epoch, applied vs stream version, install and
// refusal counters.
type ReplFollowerStatus = repl.FollowerStatus

// ErrNotPrimary is returned by Enqueue on a follower-mode service:
// followers apply the replicated stream only, never local writes.
var ErrNotPrimary = serve.ErrNotPrimary

// AttachPrimary attaches a replication primary to the service under the
// operator-assigned fencing epoch (monotone across primary handoffs —
// a follower that has seen epoch N refuses every frame from epochs
// below it). The attach happens at a writer barrier, so the shipped
// history is complete from the current version onward.
func (s *Service) AttachPrimary(ctx context.Context, epoch uint64, opt ReplPrimaryOptions) (*ReplPrimary, error) {
	return repl.NewPrimary(ctx, s.s, epoch, opt)
}

// NewReplFollower builds a replication follower. With an Options.Dir
// that already holds a previous follower's store, the engine state and
// fencing epoch resume from it; otherwise the first connection installs
// a checkpoint. Call Run to start streaming.
func NewReplFollower(opt ReplFollowerOptions) (*ReplFollower, error) {
	return repl.NewFollower(opt)
}

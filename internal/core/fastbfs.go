// Package core is FastBFS, the paper's primary contribution: an
// edge-centric out-of-core BFS engine built by modifying X-Stream
// (internal/xstream) with
//
//  1. asynchronous graph trimming — during every scatter, edges whose
//     source vertex is already visited are eliminated; the surviving
//     edges are written to a per-partition *stay file* on a dedicated
//     writer thread, and the stay file replaces the partition's edge
//     file as next-iteration input (§II-C1);
//  2. cross-iteration latency hiding with cancellation — partition p's
//     stay write only has to finish by p's scatter in the *next*
//     iteration; if it is still not ready after a short grace period,
//     the write is cancelled and the previous input is re-read, which is
//     always correct because the stay list is a subset of it (§II-C2);
//  3. a trim threshold — a scatter rewrites its partition only once
//     that at least halves it, which the engine knows from exact edge
//     counts before the scan, so no iteration rewrites a nearly-whole
//     graph for nothing; the paper's two static knobs (start several
//     iterations late, or once enough of the graph has converged,
//     §II-C3) remain for reproducing it;
//  4. coarse-grained selective scheduling — partitions that received no
//     updates are skipped entirely in the next iteration (§II-C3);
//  5. two-disk I/O scheduling — in two-disk mode the stay-out stream and
//     the update streams live on the second disk, and the stay-in /
//     stay-out roles switch disks every iteration so the big sequential
//     read and the big sequential write never share a spindle (§IV-C3).
//
// The modification is literal: there is one streaming loop, in
// internal/xstream (kernel.go), and the five mechanisms are the branches
// of it a Policy value switches on. This package is the front-end
// everything else imports — the options with their defaults, Run and
// RunContext — and resolves its options once into that value; it holds no
// loop and no rule of its own (DESIGN.md §19).
package core

import (
	"context"
	"time"

	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// EngineName identifies FastBFS in metrics and file prefixes.
const EngineName = "fastbfs"

// Options configures a FastBFS run. Base holds the X-Stream-inherited
// settings (root, memory budget, threads, buffers, simulation).
type Options struct {
	Base xstream.Options

	// TrimStartIteration and TrimVisitedFraction are the paper's static
	// trim threshold. Both zero — the default — leaves it unset, and each
	// scatter decides from its partition's exact edge counts whether a
	// stay file pays (xstream.Policy.TrimActive). A positive
	// TrimStartIteration delays trimming until that iteration ("the
	// easiest way to avoid this squander of resources is to start the
	// graph trimming several iterations later", §II-C3), TrimEveryIteration
	// trims from the first, the paper's default; TrimVisitedFraction
	// additionally requires that at least this fraction of vertices be
	// visited ("till the stay list shrinks to a relatively small
	// proportion").
	TrimStartIteration  int
	TrimVisitedFraction float64
	// DisableTrimming turns the stay-file mechanism off entirely
	// (ablation: FastBFS degenerates to X-Stream plus selective
	// scheduling).
	DisableTrimming bool
	// DisableSelectiveScheduling makes every partition load, gather and
	// scatter every iteration, as X-Stream does (ablation).
	DisableSelectiveScheduling bool

	// StayBufSize and StayBufCount size the stay writer's private edge
	// buffers (§III: "the edge buffer count and size are made tunable").
	// Defaults: the stream buffer size, and 8 buffers.
	StayBufSize  int
	StayBufCount int

	// GracePeriod is how long, in seconds, a scatter waits for its
	// partition's late stay file before cancelling it (§II-C2): simulated
	// seconds under Base.Sim, wall-clock seconds otherwise. Default 50 ms.
	GracePeriod float64
	// Deprecated: GraceWall is ignored. GracePeriod is the grace period
	// in both clocks.
	GraceWall time.Duration

	// Deprecated: ResidencyBudget is ignored. The resident-partition cache
	// it sized is gone (DESIGN.md §8); every partition streams from the
	// device.
	ResidencyBudget int64

	// CheckpointVol, when non-nil, enables crash-consistent
	// checkpointing (DESIGN.md §10): a streaming run keeps a log of every
	// level it forms on the working volume, and after every completed
	// iteration atomically persists a manifest naming them to this
	// volume. A run on the in-memory path ignores it.
	CheckpointVol storage.Volume
	// Resume restarts from CheckpointVol's manifest: the run folds the
	// logs into its vertex state, starts again from the stored edge file and
	// continues at the iteration after the last completed one. With no
	// manifest present the run is simply fresh; a corrupt or mismatched
	// manifest fails with errs.ErrCorrupted.
	Resume bool
}

// SetDefaults fills unset fields.
func (o *Options) SetDefaults() {
	o.Base.SetDefaults(EngineName)
	if o.StayBufSize == 0 {
		o.StayBufSize = o.Base.StreamBufSize
	}
	if o.StayBufCount == 0 {
		o.StayBufCount = 8
	}
	if o.GracePeriod == 0 {
		o.GracePeriod = 0.05
	}
}

// TrimEveryIteration, for Options.TrimStartIteration, is the paper's
// default threshold: every scatter trims, from the first iteration on.
const TrimEveryIteration = xstream.TrimEveryIteration

// Result is the FastBFS output (same shape as X-Stream's).
type Result = xstream.Result

// Run executes FastBFS over the stored graph graphName on vol.
func Run(vol storage.Volume, graphName string, opts Options) (*Result, error) {
	return RunContext(context.Background(), vol, graphName, opts)
}

// RunContext is Run with a cancellation context: ctx is checked at
// iteration and partition boundaries and inside the stay writer's grace
// wait, so a cancelled query abandons its scatter, discards pending stay
// files and removes its working files instead of running to completion.
//
// FastBFS has no loop of its own: the options are resolved once into the
// policy value below and handed to the streaming kernel in
// internal/xstream, which X-Stream runs under the zero policy
// (DESIGN.md §19).
func RunContext(ctx context.Context, vol storage.Volume, graphName string, opts Options) (*Result, error) {
	opts.SetDefaults()
	return xstream.RunPolicy(ctx, vol, graphName, EngineName, opts.Base, opts.policy())
}

// policy maps the resolved options onto the kernel's policy value.
func (o *Options) policy() xstream.Policy {
	return xstream.Policy{
		Trim:                !o.DisableTrimming,
		TrimStartIteration:  o.TrimStartIteration,
		TrimVisitedFraction: o.TrimVisitedFraction,
		SelectiveScheduling: !o.DisableSelectiveScheduling,
		StayBufSize:         o.StayBufSize,
		StayBufCount:        o.StayBufCount,
		GracePeriod:         o.GracePeriod,
		CheckpointVol:       o.CheckpointVol,
		Resume:              o.Resume,
	}
}

// Package harness holds a simulation run's context (Ctx) and a
// deterministic parallel sweep engine: Sweep fans independent
// simulation runs out over a worker pool and guarantees that results
// are bit-identical at any parallelism level.
//
// Determinism rests on three rules:
//
//  1. Worker isolation. Every sweep point runs in its own goroutine with
//     its own Ctx, networks and schedulers (one sim.Scheduler per
//     netsim.Network); nothing mutable is shared between points. A
//     point's Ctx inherits the shard count but never the telemetry
//     plane, which concurrent points would race on.
//  2. Seed derivation. Random streams are never taken from a shared
//     sequence, which would make them depend on execution order.
//     Ctx.Seed hashes (campaign name, point key, stream name) with
//     FNV-1a, so a point's seeds depend only on its identity.
//  3. Ordered reduction. Results land in a slice indexed by point
//     position, not in completion order; aggregation reads that slice.
//
// Every network a run adopts through its Ctx is audited after the run
// by the simulation invariant checker (netsim.AuditInvariants): packet
// conservation, queue accounting, drop bookkeeping agreement, and clock
// sanity. A run whose simulations leak packets fails loudly, not
// statistically.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Point identifies one parameter combination in a sweep. Key must be
// unique within the sweep and stable across runs — it is hashed into the
// point's random seeds and used to label results.
type Point interface {
	Key() string
}

// KeyString is the trivial Point: its key is itself.
type KeyString string

// Key implements Point.
func (k KeyString) Key() string { return string(k) }

// Seed derives a deterministic 63-bit seed by FNV-1a hashing the given
// parts with length framing (so ("ab","c") and ("a","bc") differ). The
// derivation lives in sim.DeriveSeed so lower layers (the sharded
// engine's per-port loss streams) share it without importing harness.
func Seed(parts ...string) int64 {
	return sim.DeriveSeed(parts...)
}

// Ctx is a run's context: every setting a run's networks take from
// outside the model. A binary or test builds the top-level Ctx from its
// flags as a literal; Sweep builds one per point. The Ctx derives the
// run's seeds, gives every network it adopts the shard count and the
// telemetry plane, and audits those networks when the run ends. A Ctx
// belongs to one goroutine.
type Ctx struct {
	// Shards is the shard count an adopted network's first run
	// installs; below 1 means 1. It changes wall-clock time only.
	Shards int

	// Parallel is Sweep's worker count; zero or negative uses
	// GOMAXPROCS. It changes wall-clock time only.
	Parallel int

	// Telemetry, when non-nil, is attached to every adopted network.
	Telemetry *telemetry.Telemetry

	campaign string
	point    string
	nets     []auditedNet
}

type auditedNet struct {
	label string
	net   *netsim.Network
}

// Seed returns the deterministic seed for a named random stream of this
// point, independent of execution order and parallelism.
func (c *Ctx) Seed(stream string) int64 {
	return Seed(c.campaign, c.point, stream)
}

// Adopt makes n part of the run and returns it: it attaches the
// telemetry plane, if there is one, sets the shard count n's first run
// installs, and registers n under label for Audit. Adopt a network as
// soon as it is built, before anything is dialed, meshed or scheduled
// on it: the tcp, perfsonar and fault builders read the plane when
// they run.
func (c *Ctx) Adopt(label string, n *netsim.Network) *netsim.Network {
	if c.Telemetry != nil {
		n.AttachTelemetry(c.Telemetry)
	}
	n.SetShards(c.Shards)
	c.nets = append(c.nets, auditedNet{label: label, net: n})
	return n
}

// NewNetwork creates and adopts a network seeded for the named stream.
func (c *Ctx) NewNetwork(stream string) *netsim.Network {
	return c.Adopt(stream, netsim.New(c.Seed(stream)))
}

// Audit checks the simulation invariants of every adopted network and
// returns the violations joined into one error, or nil.
func (c *Ctx) Audit() error {
	var errs []error
	for _, v := range c.violations() {
		errs = append(errs, fmt.Errorf("%s: %w", v.Network, v.Err))
	}
	return errors.Join(errs...)
}

func (c *Ctx) violations() []Violation {
	var out []Violation
	for _, an := range c.nets {
		for _, err := range an.net.AuditInvariants() {
			out = append(out, Violation{Point: c.point, Network: an.label, Err: err})
		}
	}
	return out
}

// Violation is one invariant failure found auditing a point's networks.
type Violation struct {
	Point   string // point key
	Network string // Adopt/NewNetwork label
	Err     error
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s]: %v", v.Point, v.Network, v.Err)
}

// Outcome is one sweep point's result.
type Outcome[R any] struct {
	Key        string
	Value      R
	Err        error // error returned by the run function
	Violations []Violation
}

// Result collects a sweep's outcomes in point order — the same order at
// any parallelism level.
type Result[R any] struct {
	Name     string // the sweep's campaign name
	Outcomes []Outcome[R]
}

// Values returns the point results in point order. It is only meaningful
// when Err() is nil.
func (r *Result[R]) Values() []R {
	out := make([]R, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = o.Value
	}
	return out
}

// Err returns the first run error or invariant violation, or nil when
// every point succeeded cleanly.
func (r *Result[R]) Err() error {
	for _, o := range r.Outcomes {
		if o.Err != nil {
			return fmt.Errorf("sweep %s point %s: %w", r.Name, o.Key, o.Err)
		}
		if len(o.Violations) > 0 {
			return fmt.Errorf("sweep %s point %s: invariant violated: %v", r.Name, o.Key, o.Violations[0])
		}
	}
	return nil
}

// Violations returns every invariant violation across all points.
func (r *Result[R]) Violations() []Violation {
	var out []Violation
	for _, o := range r.Outcomes {
		out = append(out, o.Violations...)
	}
	return out
}

// Sweep runs fn once per point on ctx.Parallel workers and returns the
// outcomes in point order. name is the campaign name, folded into every
// point's seeds so distinct campaigns sample distinct random streams at
// identical points. Each invocation gets a fresh Ctx with ctx's shard
// count; after fn returns, every network adopted on it is audited.
// Duplicate point keys panic: they would alias random streams and
// labels.
func Sweep[P Point, R any](ctx *Ctx, name string, points []P, fn func(ctx *Ctx, p P) (R, error)) *Result[R] {
	seen := make(map[string]bool, len(points))
	for _, p := range points {
		if seen[p.Key()] {
			panic(fmt.Sprintf("harness: duplicate sweep point key %q in %q", p.Key(), name))
		}
		seen[p.Key()] = true
	}

	res := &Result[R]{
		Name:     name,
		Outcomes: make([]Outcome[R], len(points)),
	}
	workers := ctx.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				pctx := &Ctx{Shards: ctx.Shards, campaign: name, point: points[i].Key()}
				res.Outcomes[i] = runPoint(pctx, points[i], fn)
			}
		}()
	}
	wg.Wait()
	return res
}

func runPoint[P Point, R any](ctx *Ctx, p P, fn func(ctx *Ctx, p P) (R, error)) Outcome[R] {
	out := Outcome[R]{Key: p.Key()}
	out.Value, out.Err = fn(ctx, p)
	out.Violations = ctx.violations()
	return out
}

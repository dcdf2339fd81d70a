package fault

import (
	"math/rand"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// overlay layers an injected loss model on top of whatever loss model a
// link already had, drawing the injected model's randomness from the
// fault's private RNG. The base model keeps consuming the network's
// stream exactly as before, so installing a fault never perturbs the
// random sequence any other component sees — a run with a fault differs
// from the fault-free run only by the fault's own effects.
type overlay struct {
	base   netsim.LossModel // the link's pre-fault model; may be nil
	inject netsim.LossModel // the fault's model
	rng    *rand.Rand       // per-fault stream for inject
}

// Drop implements netsim.LossModel on the per-packet wire path.
//
//dmz:hotpath
func (o *overlay) Drop(now sim.Time, r *rand.Rand, p *netsim.Packet) bool {
	if o.base != nil && o.base.Drop(now, r, p) {
		return true
	}
	return o.inject.Drop(now, o.rng, p)
}

// ramp is the degrading-optic model: drop probability rises linearly
// from 0 at start to Peak at start+rise, then holds. It reads the
// simulation clock passed by the wire path — not a captured scheduler,
// which could be the wrong (control) clock — so it is deterministic and
// replayable at any shard count.
type ramp struct {
	start sim.Time // set at fault onset
	rise  sim.Time // duration of the ramp, as a span
	peak  float64
}

// Drop implements netsim.LossModel.
//
//dmz:hotpath
func (rp *ramp) Drop(now sim.Time, r *rand.Rand, _ *netsim.Packet) bool {
	frac := float64(now-rp.start) / float64(rp.rise)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	p := rp.peak * frac
	return p > 0 && r.Float64() < p
}

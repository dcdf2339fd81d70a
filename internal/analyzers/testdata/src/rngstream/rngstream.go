// Package rngstream exercises the named-stream RNG analyzer: seeds
// must be passed through or derived via a naming helper (never ad-hoc
// arithmetic), and a *rand.Rand must not be aliased from one
// component's state into another's. DeriveSeed/NewRand mirror the sim
// package's helpers.
package rngstream

import (
	"math/rand"
	"strconv"
)

// DeriveSeed mirrors sim.DeriveSeed: a named, order-independent stream
// derivation. The arithmetic inside is legal — it does not feed a RNG
// constructor directly.
func DeriveSeed(parts ...string) int64 {
	h := int64(1469598103934665603)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= int64(p[i])
			h *= 1099511628211
		}
	}
	return h
}

// NewRand mirrors sim.NewRand: a plain seed passthrough is legal.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func badArith(seed int64, i int) *rand.Rand {
	return NewRand(seed*1000 + int64(i)) // want `raw seed arithmetic feeds a RNG stream`
}

func badSource(seed int64) rand.Source {
	return rand.NewSource(seed + 1) // want `raw seed arithmetic feeds a RNG stream`
}

func badConverted(seed int, i int) *rand.Rand {
	return NewRand(int64(seed * 31 * i)) // want `raw seed arithmetic feeds a RNG stream`
}

func okDerived(name string, seed int64) *rand.Rand {
	return NewRand(DeriveSeed("component", name, strconv.FormatInt(seed, 10)))
}

func badUnrooted(name string) *rand.Rand {
	return NewRand(DeriveSeed("component", name)) // want `DeriveSeed names a stream without the run seed`
}

func badWrongBase(name string, seed int64) *rand.Rand {
	return NewRand(DeriveSeed("component", name, strconv.FormatInt(seed, 16))) // want `DeriveSeed names a stream without the run seed`
}

// okSpread: a helper spreading its caller's parts leaves rooting to the
// caller (harness.Seed, Network.Stream).
func okSpread(parts ...string) int64 {
	return DeriveSeed(parts...)
}

func okSeedless() *rand.Rand {
	return NewRand(DeriveSeed("fixture")) //dmzvet:rawseed a fixed test stream, the same in every run on purpose
}

func okPassthrough(seed int64) *rand.Rand {
	return NewRand(seed)
}

func okConst() *rand.Rand {
	return NewRand(40 + 2) // constant-folded: stable by construction
}

func okJustified(seed int64, i int) *rand.Rand {
	return NewRand(seed + int64(i)) //dmzvet:rawseed legacy stream layout kept for byte-compatibility
}

type Component struct {
	rng *rand.Rand
}

// Rng is a stream accessor: its summary (a bare field return of a
// *rand.Rand) is an interprocedural fact the analyzer computes.
func (c *Component) Rng() *rand.Rand { return c.rng }

type Sibling struct {
	rng *rand.Rand
}

func badShare(a *Component, b *Sibling) {
	b.rng = a.rng // want `\*rand.Rand aliased across components \(reading another component's field\)`
}

func badShareViaAccessor(a *Component, b *Sibling) {
	b.rng = a.Rng() // want `\*rand.Rand aliased across components \(calling stream accessor Rng\)`
}

func badComposite(a *Component) *Sibling {
	return &Sibling{
		rng: a.rng, // want `\*rand.Rand aliased across components`
	}
}

func okForward(a *Component, b *Sibling) {
	b.rng = a.rng //dmzvet:sharedrng fault overlay deliberately forwards the wrapped model's stream
}

// okInject: handing a stream to a callee as an argument is the
// injection convention, not aliasing.
func draw(r *rand.Rand) float64 { return r.Float64() }

func okInject(a *Component) float64 { return draw(a.rng) }

// okOwn: a freshly derived stream stored at construction is the
// positive pattern.
func okOwn(name string, seed int64) *Sibling {
	return &Sibling{rng: NewRand(DeriveSeed("sibling", name, strconv.FormatInt(seed, 10)))}
}

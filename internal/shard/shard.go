// Package shard names the sharded engine for callers outside the
// simulator's own packages. The engine itself — partition, cross-shard
// outboxes, barrier-window run loop — lives in internal/netsim, since every
// netsim.Network runs on it; DESIGN.md, "Sharded execution", describes
// it. The benchmark program (benchmark/) installs its shard counts
// through Install and reads Engine.Windows, so both stay here as a
// stable entry point. The package's tests are the cross-shard
// equivalence, property and metamorphic suites.
package shard

import "repro/internal/netsim"

// Engine is the network's barrier-window run loop.
type Engine = netsim.Engine

// Install runs the network on k shard schedulers; see
// netsim.Network.InstallShards. Call it before the network first runs.
func Install(n *netsim.Network, k int) (*Engine, error) { return n.InstallShards(k) }

package firewall

import (
	"time"

	"repro/internal/netsim"
)

// HAPair coordinates two firewalls as an active/standby high-availability
// pair — the "redundant firewalls to ensure uptime" on the enterprise
// side of the Figure 5 big-data site. The pair watches the active
// member's links; when one goes down (a hard failure), it fails over by
// steering the protected destinations' routes on the adjacent devices to
// the standby path and replicating the session table so established
// flows survive.
type HAPair struct {
	Active, Standby *Firewall

	// Failovers counts role switches.
	Failovers int

	net      *netsim.Network
	reroutes []reroute
	ticker   interface{ Stop() }
}

// reroute records a route to flip on failover: on device, destination
// dst moves from viaActive to viaStandby (and back on failback).
type reroute struct {
	dev        netsim.Node
	dst        string
	viaActive  *netsim.Port
	viaStandby *netsim.Port
}

// NewHAPair pairs two firewalls with a health-check interval.
func NewHAPair(net *netsim.Network, active, standby *Firewall, checkEvery time.Duration) *HAPair {
	p := &HAPair{Active: active, Standby: standby, net: net}
	p.ticker = net.Sched.Every(checkEvery, p.check)
	return p
}

// Protect registers a destination whose route on dev should follow the
// healthy firewall: viaActive when the active member is up, viaStandby
// after failover.
func (p *HAPair) Protect(dev netsim.Node, dst string, viaActive, viaStandby *netsim.Port) {
	p.reroutes = append(p.reroutes, reroute{dev, dst, viaActive, viaStandby})
	dev.SetRoute(dst, viaActive)
}

// healthy reports whether all of a firewall's links are up.
func healthy(f *Firewall) bool {
	for _, port := range f.Ports() {
		if port.Link.Down() {
			return false
		}
	}
	return true
}

// check runs the health check and fails over/back as needed.
func (p *HAPair) check() {
	activeUp := healthy(p.Active)
	if activeUp {
		return
	}
	if !healthy(p.Standby) {
		return // both dead; nothing to steer to
	}
	p.failover()
}

// failover promotes the standby: flips protected routes and replicates
// the session table so established flows do not pay setup again.
func (p *HAPair) failover() {
	p.Failovers++
	for _, r := range p.reroutes {
		r.dev.SetRoute(r.dst, r.viaStandby)
	}
	for key, at := range p.Active.sessions {
		if _, ok := p.Standby.sessions[key]; !ok {
			p.Standby.sessions[key] = at
			p.Standby.Stats.Sessions++
		}
	}
	p.Active, p.Standby = p.Standby, p.Active
	// Re-point the reroute table for a potential second failover.
	for i := range p.reroutes {
		p.reroutes[i].viaActive, p.reroutes[i].viaStandby =
			p.reroutes[i].viaStandby, p.reroutes[i].viaActive
	}
}

// Stop ends health checking.
func (p *HAPair) Stop() { p.ticker.Stop() }

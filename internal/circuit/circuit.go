// Package circuit models an OSCARS-style virtual circuit service (§7.1):
// guaranteed-bandwidth layer-2 paths reserved between end hosts, with
// per-link admission control, token-bucket policing, and strict-priority
// treatment of conforming traffic.
//
// A provisioned circuit gives its flow a lane that best-effort traffic
// cannot congest — the property RDMA-over-Ethernet transfers need
// (internal/rdma) and the "plumbing the circuit to the end host" that
// §7.3's OpenFlow integration automates.
//
// Multi-domain reservations are coordinated by an IDC (inter-domain
// controller) that stitches per-domain reservations along the end-to-end
// path, modelling the DYNES deployment.
package circuit

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// DefaultMaxReservable is the fraction of a link's capacity the service
// will commit to circuits, keeping headroom for best-effort traffic.
const DefaultMaxReservable = 0.9

// Errors returned by reservation.
var (
	ErrNoPath       = errors.New("circuit: no routed path between endpoints")
	ErrInsufficient = errors.New("circuit: insufficient reservable bandwidth")
	ErrForeignLink  = errors.New("circuit: path crosses a link outside this domain")
)

// Service is one domain's bandwidth reservation system.
type Service struct {
	// Name identifies the domain, e.g. "esnet".
	Name string

	// MaxReservable is the committable fraction of each link's rate;
	// zero means DefaultMaxReservable.
	MaxReservable float64

	// DemoteExcess makes policers demote non-conforming packets to best
	// effort instead of dropping them. Demotion preserves bytes but
	// reorders packets across the two queues, which TCP tolerates badly;
	// hard policing (the default, and what OSCARS deploys) gives the
	// sender a clean congestion signal at the reserved rate.
	DemoteExcess bool

	net      *netsim.Network
	links    map[*netsim.Link]bool // owned links; empty set owns all
	reserved map[*netsim.Link]units.BitRate
}

// NewService creates a reservation service owning the given links. With
// no links, the service owns every link in the network (single-domain
// deployments).
func NewService(net *netsim.Network, name string, links ...*netsim.Link) *Service {
	s := &Service{
		Name:     name,
		net:      net,
		links:    make(map[*netsim.Link]bool),
		reserved: make(map[*netsim.Link]units.BitRate),
	}
	for _, l := range links {
		s.links[l] = true
	}
	return s
}

func (s *Service) maxReservable() float64 {
	if s.MaxReservable <= 0 {
		return DefaultMaxReservable
	}
	return s.MaxReservable
}

// Owns reports whether the service manages the link.
func (s *Service) Owns(l *netsim.Link) bool {
	return len(s.links) == 0 || s.links[l]
}

// Available returns the bandwidth still reservable on a link.
func (s *Service) Available(l *netsim.Link) units.BitRate {
	return units.BitRate(s.maxReservable()*float64(l.Rate)) - s.reserved[l]
}

// reserveLinks commits rate on every link, atomically.
func (s *Service) reserveLinks(links []*netsim.Link, rate units.BitRate) error {
	for _, l := range links {
		if !s.Owns(l) {
			return fmt.Errorf("%w: %s", ErrForeignLink, s.Name)
		}
		if s.Available(l) < rate {
			return fmt.Errorf("%w: need %v, have %v on a %v link in %s",
				ErrInsufficient, rate, s.Available(l), l.Rate, s.Name)
		}
	}
	for _, l := range links {
		s.reserved[l] += rate
	}
	return nil
}

func (s *Service) releaseLinks(links []*netsim.Link, rate units.BitRate) {
	for _, l := range links {
		s.reserved[l] -= rate
		if s.reserved[l] <= 0 {
			delete(s.reserved, l)
		}
	}
}

// Circuit is a provisioned reservation between two hosts.
type Circuit struct {
	ID       string
	Src, Dst string
	Rate     units.BitRate
	Path     []string

	links      []*netsim.Link
	perDomain  map[*Service][]*netsim.Link
	classifier *classifier
	ingress    *netsim.Device
	released   bool
}

// Released reports whether the circuit has been torn down.
func (c *Circuit) Released() bool { return c.released }

// pathLinks returns the routed path from src to dst: its links, its
// first forwarding device (where the classifier is installed; nil on a
// direct host-to-host link) and its node names.
func pathLinks(net *netsim.Network, src, dst string) ([]*netsim.Link, *netsim.Device, []string, error) {
	names := net.Path(src, dst)
	if names == nil {
		return nil, nil, nil, ErrNoPath
	}
	var ingress *netsim.Device
	for _, name := range names[1:] {
		if d, ok := net.Node(name).(*netsim.Device); ok {
			ingress = d
			break
		}
	}
	return net.PathInfo(src, dst), ingress, names, nil
}

// Reserve creates and provisions a circuit between two hosts entirely
// within this domain. Conforming packets between the endpoints are
// marked for the priority lane; excess is demoted to best effort (or
// dropped when strict policing is requested via the Classifier).
func (s *Service) Reserve(id, src, dst string, rate units.BitRate) (*Circuit, error) {
	links, ingress, names, err := pathLinks(s.net, src, dst)
	if err != nil {
		return nil, err
	}
	if err := s.reserveLinks(links, rate); err != nil {
		return nil, err
	}
	c := &Circuit{
		ID: id, Src: src, Dst: dst, Rate: rate, Path: names,
		links:     links,
		perDomain: map[*Service][]*netsim.Link{s: links},
	}
	c.install(s.net, ingress, s.DemoteExcess)
	return c, nil
}

// Release tears the circuit down and returns its bandwidth.
func (c *Circuit) Release() {
	if c.released {
		return
	}
	c.released = true
	for svc, links := range c.perDomain {
		svc.releaseLinks(links, c.Rate)
	}
	if c.classifier != nil {
		c.classifier.active = false
	}
}

// install places the token-bucket classifier at the ingress device.
func (c *Circuit) install(net *netsim.Network, ingress *netsim.Device, demote bool) {
	if ingress == nil {
		// Direct host-to-host link: the priority lane is moot (no
		// contention point), so nothing to install.
		return
	}
	c.classifier = &classifier{
		net:    net,
		c:      c,
		active: true,
		Strict: !demote,
		tokens: float64(burstBytes(c.Rate)),
		last:   net.Sched.Now(),
	}
	c.ingress = ingress
	ingress.AddFilter(c.classifier)
}

// Matches reports whether a packet belongs to the circuit's endpoints
// (either direction).
func (c *Circuit) Matches(p *netsim.Packet) bool {
	return (p.Flow.Src == c.Src && p.Flow.Dst == c.Dst) ||
		(p.Flow.Src == c.Dst && p.Flow.Dst == c.Src)
}

// burstBytes sizes the policer bucket: 10 ms at the reserved rate,
// floor 2 jumbo frames.
func burstBytes(rate units.BitRate) units.ByteSize {
	b := rate.BytesIn(10 * time.Millisecond)
	if b < 18000 {
		b = 18000
	}
	return b
}

// classifier is the netsim.Filter marking conforming circuit traffic.
type classifier struct {
	net    *netsim.Network
	c      *Circuit
	active bool

	// Strict drops non-conforming packets instead of demoting them.
	Strict bool

	tokens float64
	last   sim.Time

	// Marked / Demoted count classified packets.
	Marked, Demoted uint64
}

// FilterName implements netsim.Filter.
func (cl *classifier) FilterName() string { return "circuit:" + cl.c.ID }

// Check implements netsim.Filter.
func (cl *classifier) Check(p *netsim.Packet, in *netsim.Port) bool {
	if !cl.active || !cl.c.Matches(p) {
		return true
	}
	// The ingress port's clock, not the network clock: under sharded
	// execution the filter runs on the device's shard, whose time runs
	// ahead of the control scheduler between barriers.
	now := in.Now()
	elapsed := now.Sub(cl.last).Seconds()
	cl.last = now
	cl.tokens += elapsed * float64(cl.c.Rate) / 8
	if max := float64(burstBytes(cl.c.Rate)); cl.tokens > max {
		cl.tokens = max
	}
	if cl.tokens >= float64(p.Size) {
		cl.tokens -= float64(p.Size)
		p.Priority = true
		cl.Marked++
		return true
	}
	cl.Demoted++
	if cl.Strict {
		return false
	}
	p.Priority = false
	return true
}

// IDC is an inter-domain controller stitching reservations across
// domains along an end-to-end path (the DYNES model).
type IDC struct {
	net     *netsim.Network
	domains []*Service
}

// NewIDC creates a controller over the given domain services.
func NewIDC(net *netsim.Network, domains ...*Service) *IDC {
	return &IDC{net: net, domains: domains}
}

// DomainNames returns the controller's domains in admission order —
// the order services were handed to NewIDC. Exposed so callers (and
// determinism regression tests) can observe that the order is stable.
func (idc *IDC) DomainNames() []string {
	names := make([]string, 0, len(idc.domains))
	for _, d := range idc.domains {
		names = append(names, d.Name)
	}
	return names
}

// owner returns the domain owning a link, preferring explicit ownership.
func (idc *IDC) owner(l *netsim.Link) *Service {
	for _, d := range idc.domains {
		if len(d.links) > 0 && d.links[l] {
			return d
		}
	}
	for _, d := range idc.domains {
		if d.Owns(l) {
			return d
		}
	}
	return nil
}

// Reserve creates a multi-domain circuit: each domain admits its own
// segment, and all segments are rolled back if any domain refuses.
func (idc *IDC) Reserve(id, src, dst string, rate units.BitRate) (*Circuit, error) {
	links, ingress, names, err := pathLinks(idc.net, src, dst)
	if err != nil {
		return nil, err
	}
	perDomain := make(map[*Service][]*netsim.Link)
	for _, l := range links {
		d := idc.owner(l)
		if d == nil {
			return nil, fmt.Errorf("%w: link on path has no owning domain", ErrForeignLink)
		}
		perDomain[d] = append(perDomain[d], l)
	}
	// Commit in the controller's domain order, not map order: which
	// domain admits first decides which error surfaces on conflicting
	// reservations and how far rollback unwinds, so iterating perDomain
	// directly made those outcomes differ between identical runs
	// (caught by dmzvet's maporder analyzer).
	var committed []*Service
	for _, d := range idc.domains {
		ls, ok := perDomain[d]
		if !ok {
			continue
		}
		if err := d.reserveLinks(ls, rate); err != nil {
			for _, rb := range committed {
				rb.releaseLinks(perDomain[rb], rate)
			}
			return nil, err
		}
		committed = append(committed, d)
	}
	c := &Circuit{
		ID: id, Src: src, Dst: dst, Rate: rate, Path: names,
		links:     links,
		perDomain: perDomain,
	}
	c.install(idc.net, ingress, false)
	return c, nil
}

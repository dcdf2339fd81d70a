package netsim

import "repro/internal/sim"

// Scheduler-attribution tags for netsim components (see sim.TagFor).
var (
	tagPort   = sim.TagFor("netsim.port")
	tagLink   = sim.TagFor("netsim.link")
	tagDevice = sim.TagFor("netsim.device")
)

// DropReason is the structured cause of a packet drop. Drops aggregate
// by cause (all queue overflows across the topology, all wire losses)
// and, through DropSite, by location.
type DropReason uint8

// Drop reasons.
const (
	DropQueueOverflow    DropReason = iota // egress buffer full
	DropMaxHops                            // routing loop guard
	DropLinkDown                           // hard failure: link administratively/physically down
	DropWireLoss                           // soft failure: corrupted in transit by a LossModel
	DropFiltered                           // rejected by a device filter (ACL, SDN table)
	DropNoRoute                            // no route at a forwarding device
	DropNoLocalRoute                       // no route at the sending host
	DropNoHandler                          // no transport handler bound at the destination
	DropSFOverflow                         // degraded store-and-forward pool full
	DropFirewallOverflow                   // firewall inspection input buffer full
	DropFirewallPolicy                     // firewall rule rejection

	numDropReasons // sentinel
)

var dropReasonNames = [numDropReasons]string{
	DropQueueOverflow:    "queue-overflow",
	DropMaxHops:          "max-hops",
	DropLinkDown:         "link-down",
	DropWireLoss:         "wire-loss",
	DropFiltered:         "filtered",
	DropNoRoute:          "no-route",
	DropNoLocalRoute:     "no-local-route",
	DropNoHandler:        "no-handler",
	DropSFOverflow:       "sf-overflow",
	DropFirewallOverflow: "firewall-overflow",
	DropFirewallPolicy:   "firewall-policy",
}

// String returns the short aggregation key used in metrics labels and
// trace events.
func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) {
		return dropReasonNames[r]
	}
	return "unknown"
}

// DropSite is the aggregation key for structured drop accounting: what
// happened and where.
type DropSite struct {
	Reason DropReason
	Node   string
}

func (s DropSite) String() string { return s.Reason.String() + "@" + s.Node }

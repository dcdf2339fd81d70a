package netsim

import (
	"sort"
	"time"
)

// DefaultMinCutDelay is the heuristic floor for automatic cut selection
// when the topology has no explicitly hinted boundary links: a link must
// carry at least this much propagation delay to be worth a cut, since
// the delay bounds the synchronization window length.
const DefaultMinCutDelay = time.Millisecond

// Cut is one partition boundary link.
type Cut struct {
	Link *Link
	// Index is the link's creation index in Network.Links(). The engine
	// derives the link's two ordering lanes from it, so lane identity is
	// pure topology — invariant across shard counts.
	Index int
	// DomA and DomB are the Plan.Domains indices of the link's two ends.
	// They are equal when another path joins the ends: the cut still
	// gets lanes, but its packets never wait in an outbox.
	DomA, DomB int
}

// Plan is a deterministic partition of a network: the domains (connected
// components after removing the cut links) and the cuts themselves.
// Everything about a Plan depends only on the topology, never on the
// shard count the engine later spreads the domains over.
type Plan struct {
	// Domains lists each domain's node names. Domains are ranked by
	// their smallest member name and members are sorted, so the layout
	// is identical on every run.
	Domains [][]string

	// Cuts are the boundary links, in link-creation order.
	Cuts []Cut

	// Lookahead is the smallest propagation delay across the cuts: the
	// horizon each shard may safely run ahead of the rest. Zero exactly
	// when there is no cut: the network is then one domain, and nothing
	// bounds how far it runs between control events.
	Lookahead time.Duration
}

// Partition plans a deterministic split of the network. Cut selection:
// links explicitly marked with MarkCut (topology builders mark the
// campus/DMZ/WAN boundaries) win when any marked link is cuttable;
// otherwise every cuttable link with at least DefaultMinCutDelay of
// propagation delay is cut. Domains are the connected components of the
// node graph with the cut links removed; a network with no cut is one
// domain holding every node. Partition never panics on any network
// (FuzzPartition enforces this).
func (n *Network) Partition() *Plan {
	links := n.links
	hinted := false
	for _, l := range links {
		if l.cutHint && l.Cuttable() {
			hinted = true
			break
		}
	}
	plan := &Plan{}
	isCut := make([]bool, len(links))
	for i, l := range links {
		if !l.Cuttable() {
			continue
		}
		if hinted {
			isCut[i] = l.cutHint
		} else {
			isCut[i] = l.Delay >= DefaultMinCutDelay
		}
		// Cuttable links have strictly positive delay, so the lookahead
		// is positive whenever anything is cut.
		if isCut[i] && (plan.Lookahead == 0 || l.Delay < plan.Lookahead) {
			plan.Lookahead = l.Delay
		}
	}
	names := n.NodeNames()
	if plan.Lookahead == 0 {
		plan.Domains = [][]string{names}
		return plan
	}

	// Domains: union nodes joined by any non-cut link, then group.
	parent := make(map[string]string, len(names))
	for _, name := range names {
		parent[name] = name
	}
	find := func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, l := range links {
		if isCut[i] {
			continue
		}
		a, b := l.Ends()
		ra, rb := find(a), find(b)
		if ra != rb {
			// Smaller root name wins: keeps roots deterministic.
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	groups := make(map[string][]string)
	for _, name := range names {
		r := find(name)
		groups[r] = append(groups[r], name)
	}
	roots := make([]string, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Strings(roots)

	domOf := make(map[string]int, len(names))
	for i, r := range roots {
		// Members arrive in sorted name order: names is sorted.
		plan.Domains = append(plan.Domains, groups[r])
		for _, m := range groups[r] {
			domOf[m] = i
		}
	}
	for i, l := range links {
		if isCut[i] {
			a, b := l.Ends()
			plan.Cuts = append(plan.Cuts, Cut{Link: l, Index: i, DomA: domOf[a], DomB: domOf[b]})
		}
	}
	return plan
}

// Package topo builds the notional network topologies of the paper's
// figures and use cases: the general-purpose campus network the Science
// DMZ fixes, the simple Science DMZ (Figure 3), the supercomputer center
// (Figure 4), the big-data site (Figure 5), the University of Colorado
// RCNet (Figures 6-7, §6.1), and the Penn State College of Engineering
// network (§6.2, Figure 8).
//
// Each builder returns a struct exposing the interesting nodes so
// experiments can attach workloads and measurements.
package topo

import (
	"fmt"
	"time"

	"repro/internal/content"
	"repro/internal/dtn"
	"repro/internal/firewall"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// WANConfig describes the wide-area segment between the site border and
// a remote collaborating facility. The paper assumes the WAN "is doing
// its job": clean, fast, and long.
type WANConfig struct {
	Rate  units.BitRate // zero: 10 Gb/s
	Delay time.Duration // one-way; zero: 12.5 ms (~25 ms RTT, cross-country)
	MTU   int           // zero: 9000 (science WANs run jumbo frames)
	Loss  netsim.LossModel
}

func (w WANConfig) withDefaults() WANConfig {
	if w.Rate == 0 {
		w.Rate = 10 * units.Gbps
	}
	if w.Delay == 0 {
		w.Delay = 12500 * time.Microsecond
	}
	if w.MTU == 0 {
		w.MTU = 9000
	}
	return w
}

// Campus is the "before" picture (§2): a general-purpose campus network
// where science traffic crosses the enterprise firewall and several
// modestly-buffered building switches to reach the WAN.
type Campus struct {
	Net *netsim.Network

	// RemoteDTN is the collaborating facility's transfer node across
	// the WAN.
	RemoteDTN *dtn.Node

	Border   *netsim.Device
	Firewall *firewall.Firewall
	Core     *netsim.Device
	Dept     *netsim.Device

	// ScienceHost is the researcher's data server deep in the campus.
	ScienceHost *dtn.Node

	// OfficeHosts generate the enterprise workload.
	OfficeHosts []*netsim.Host

	WAN WANConfig
}

// CampusConfig adjusts the general-purpose campus build.
type CampusConfig struct {
	WAN WANConfig
	// Firewall defaults to a mid-range enterprise appliance.
	Firewall firewall.Config
	// Offices is the number of office hosts; zero means 8.
	Offices int
	// DeptBuffer is the building-switch egress buffer; zero means the
	// paper's "inexpensive LAN switch": 512 KB.
	DeptBuffer units.ByteSize
	// ScienceTuned applies DTN tuning to the science host; the default
	// (false) models a stock workstation.
	ScienceTuned bool
}

// NewCampus builds the general-purpose campus.
func NewCampus(seed int64, cfg CampusConfig) *Campus {
	cfg.WAN = cfg.WAN.withDefaults()
	if cfg.Offices == 0 {
		cfg.Offices = 8
	}
	if cfg.DeptBuffer == 0 {
		cfg.DeptBuffer = 512 * units.KB
	}
	n := netsim.New(seed)

	remote := n.NewHost("remote-dtn")
	border := n.NewDevice("border", netsim.DeviceConfig{EgressBuffer: 32 * units.MB})
	fw := firewall.New(n, "fw", cfg.Firewall)
	core := n.NewDevice("core", netsim.DeviceConfig{EgressBuffer: 4 * units.MB})
	dept := n.NewDevice("dept", netsim.DeviceConfig{EgressBuffer: cfg.DeptBuffer})
	science := n.NewHost("science")

	n.Connect(remote, border, netsim.LinkConfig{
		Rate: cfg.WAN.Rate, Delay: cfg.WAN.Delay, MTU: cfg.WAN.MTU, Loss: cfg.WAN.Loss,
	}).MarkCut()
	n.Connect(border, fw, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(fw, core, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(core, dept, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 50 * time.Microsecond})
	n.Connect(dept, science, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})

	c := &Campus{
		Net:      n,
		Border:   border,
		Firewall: fw,
		Core:     core,
		Dept:     dept,
		WAN:      cfg.WAN,
	}
	for i := 0; i < cfg.Offices; i++ {
		h := n.NewHost(fmt.Sprintf("office%02d", i))
		n.Connect(h, dept, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
		c.OfficeHosts = append(c.OfficeHosts, h)
	}
	n.ComputeRoutes()

	tuning := tcp.Legacy()
	if cfg.ScienceTuned {
		tuning = tcp.Tuned()
	}
	c.ScienceHost = dtn.New(science, dtn.Disk{}, tuning)
	c.RemoteDTN = dtn.New(remote, dtn.Disk{}, tcp.Tuned())
	return c
}

// SimpleDMZ is the Figure 3 design: the DTN and a perfSONAR host hang
// off a dedicated high-performance switch attached directly to the
// border router; the campus (with its firewall) hangs off the border
// separately. The science path never touches the firewall; policy on
// the DMZ switch is ACL-based.
type SimpleDMZ struct {
	Net *netsim.Network

	RemoteDTN *dtn.Node
	RemotePS  *netsim.Host

	Border    *netsim.Device
	DMZSwitch *netsim.Device
	DTN       *dtn.Node
	PerfSONAR *netsim.Host

	Firewall *firewall.Firewall
	Campus   *netsim.Device
	CampusPC *netsim.Host

	// Cache is the DMZ-switch content cache, nil unless
	// SimpleDMZConfig.CacheBudget was set.
	Cache *content.Cache

	WAN WANConfig
}

// SimpleDMZConfig adjusts the Figure 3 build.
type SimpleDMZConfig struct {
	WAN WANConfig
	// DTNDisk defaults to unconstrained storage.
	DTNDisk dtn.Disk
	// DMZBuffer is the DMZ switch egress buffer; zero means 64 MB (the
	// deep-buffered device the pattern calls for).
	DMZBuffer units.ByteSize
	// CacheBudget, when nonzero, attaches a content cache of that byte
	// budget (with request aggregation) to the DMZ switch.
	CacheBudget units.ByteSize
}

// NewSimpleDMZ builds the Figure 3 topology.
func NewSimpleDMZ(seed int64, cfg SimpleDMZConfig) *SimpleDMZ {
	cfg.WAN = cfg.WAN.withDefaults()
	if cfg.DMZBuffer == 0 {
		cfg.DMZBuffer = 64 * units.MB
	}
	n := netsim.New(seed)

	remote := n.NewHost("remote-dtn")
	remotePS := n.NewHost("remote-ps")
	border := n.NewDevice("border", netsim.DeviceConfig{EgressBuffer: 32 * units.MB})
	dmzsw := n.NewDevice("dmz-sw", netsim.DeviceConfig{EgressBuffer: cfg.DMZBuffer})
	dtnHost := n.NewHost("dtn")
	ps := n.NewHost("perfsonar")
	fw := firewall.New(n, "fw", firewall.Config{})
	campus := n.NewDevice("campus", netsim.DeviceConfig{EgressBuffer: 2 * units.MB})
	pc := n.NewHost("campus-pc")

	wan := netsim.LinkConfig{Rate: cfg.WAN.Rate, Delay: cfg.WAN.Delay, MTU: cfg.WAN.MTU, Loss: cfg.WAN.Loss}
	// The wide-area links are the natural shard boundaries: their
	// propagation delay dwarfs intra-site event spacing, so they carry
	// the partition lookahead (see netsim.Network.Partition).
	n.Connect(remote, border, wan).MarkCut()
	wanPS := wan
	n.Connect(remotePS, border, wanPS).MarkCut()

	fast := netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000}
	n.Connect(border, dmzsw, fast)
	n.Connect(dmzsw, dtnHost, fast)
	n.Connect(dmzsw, ps, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000})

	n.Connect(border, fw, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(fw, campus, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(campus, pc, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
	n.ComputeRoutes()

	var cache *content.Cache
	if cfg.CacheBudget > 0 {
		cache = content.NewCache(dmzsw, content.CacheConfig{
			Budget:    cfg.CacheBudget,
			Aggregate: true,
		})
	}

	return &SimpleDMZ{
		Net:       n,
		RemoteDTN: dtn.New(remote, dtn.Disk{}, tcp.Tuned()),
		RemotePS:  remotePS,
		Border:    border,
		DMZSwitch: dmzsw,
		DTN:       dtn.New(dtnHost, cfg.DTNDisk, tcp.Tuned()),
		PerfSONAR: ps,
		Firewall:  fw,
		Campus:    campus,
		CampusPC:  pc,
		Cache:     cache,
		WAN:       cfg.WAN,
	}
}

// Supercomputer is the Figure 4 design: redundant border routers, a core
// switch/router, a DTN cluster mounting the parallel filesystem
// directly, and the supercomputer reading the same filesystem — data
// lands once, with no double copy through login nodes.
type Supercomputer struct {
	Net *netsim.Network

	RemoteDTN *dtn.Node

	Borders [2]*netsim.Device
	Core    *netsim.Device
	DTNs    []*dtn.Node

	// FSFabric and Filesystem model the parallel-filesystem network.
	FSFabric   *netsim.Device
	Filesystem *netsim.Host

	// Login is a login node NOT tuned for WAN transfer — the path the
	// DTN design makes unnecessary.
	Login *dtn.Node

	WAN WANConfig
}

// SupercomputerConfig adjusts the Figure 4 build.
type SupercomputerConfig struct {
	WAN WANConfig
	// DTNs is the cluster size; zero means 4.
	DTNs int
	// FSRate is each DTN's parallel-filesystem bandwidth; zero means
	// 40 Gb/s (faster than the WAN; not the bottleneck).
	FSRate units.BitRate
}

// NewSupercomputer builds the Figure 4 topology.
func NewSupercomputer(seed int64, cfg SupercomputerConfig) *Supercomputer {
	cfg.WAN = cfg.WAN.withDefaults()
	if cfg.DTNs == 0 {
		cfg.DTNs = 4
	}
	if cfg.FSRate == 0 {
		cfg.FSRate = 40 * units.Gbps
	}
	n := netsim.New(seed)

	remote := n.NewHost("remote-dtn")
	b1 := n.NewDevice("border1", netsim.DeviceConfig{EgressBuffer: 32 * units.MB})
	b2 := n.NewDevice("border2", netsim.DeviceConfig{EgressBuffer: 32 * units.MB})
	core := n.NewDevice("core", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	fsFabric := n.NewDevice("fs-fabric", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	fs := n.NewHost("pfs")
	login := n.NewHost("login")

	wan := netsim.LinkConfig{Rate: cfg.WAN.Rate, Delay: cfg.WAN.Delay, MTU: cfg.WAN.MTU, Loss: cfg.WAN.Loss}
	n.Connect(remote, b1, wan).MarkCut()
	fast := netsim.LinkConfig{Rate: 100 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000}
	n.Connect(b1, core, fast)
	n.Connect(b2, core, fast)
	n.Connect(core, login, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(fsFabric, fs, netsim.LinkConfig{Rate: 200 * units.Gbps, Delay: 5 * time.Microsecond, MTU: 9000})

	s := &Supercomputer{
		Net:        n,
		Borders:    [2]*netsim.Device{b1, b2},
		Core:       core,
		FSFabric:   fsFabric,
		Filesystem: fs,
		WAN:        cfg.WAN,
	}
	disk := dtn.Disk{ReadRate: cfg.FSRate, WriteRate: cfg.FSRate}
	for i := 0; i < cfg.DTNs; i++ {
		h := n.NewHost(fmt.Sprintf("dtn%02d", i))
		n.Connect(h, core, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000})
		n.Connect(h, fsFabric, netsim.LinkConfig{Rate: 2 * cfg.FSRate, Delay: 5 * time.Microsecond, MTU: 9000})
		s.DTNs = append(s.DTNs, dtn.New(h, disk, tcp.Tuned()))
	}
	n.ComputeRoutes()

	s.RemoteDTN = dtn.New(remote, dtn.Disk{}, tcp.Tuned())
	// Login nodes move data through home-directory storage at a
	// fraction of the parallel filesystem's speed, with stock TCP.
	s.Login = dtn.New(login, dtn.Disk{ReadRate: units.Gbps, WriteRate: units.Gbps}, tcp.Legacy())
	return s
}

// BigData is the Figure 5 design: an LHC-style site where the wide-area
// path covers the whole front-end: redundant borders, a data-service
// switch plane feeding a data transfer cluster, and an enterprise side
// behind redundant firewalls that science flows never traverse.
type BigData struct {
	Net *netsim.Network

	RemoteCluster []*dtn.Node

	Borders   [2]*netsim.Device
	DataPlane [2]*netsim.Device
	Cluster   []*dtn.Node

	Firewalls  [2]*firewall.Firewall
	Enterprise *netsim.Device
	Office     *netsim.Host

	WAN WANConfig
}

// BigDataConfig adjusts the Figure 5 build.
type BigDataConfig struct {
	WAN WANConfig
	// ClusterSize is the DTN count per side; zero means 6.
	ClusterSize int
}

// NewBigData builds the Figure 5 topology.
func NewBigData(seed int64, cfg BigDataConfig) *BigData {
	cfg.WAN = cfg.WAN.withDefaults()
	if cfg.WAN.Rate == 10*units.Gbps {
		cfg.WAN.Rate = 40 * units.Gbps // LHC Tier-1 scale by default
	}
	if cfg.ClusterSize == 0 {
		cfg.ClusterSize = 6
	}
	n := netsim.New(seed)

	b1 := n.NewDevice("border1", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	b2 := n.NewDevice("border2", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	d1 := n.NewDevice("data-sw1", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	d2 := n.NewDevice("data-sw2", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	ent := n.NewDevice("enterprise", netsim.DeviceConfig{EgressBuffer: 2 * units.MB})
	fw1 := firewall.New(n, "fw1", firewall.Config{})
	fw2 := firewall.New(n, "fw2", firewall.Config{})
	office := n.NewHost("office")
	remoteSw := n.NewDevice("remote-sw", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})

	wan := netsim.LinkConfig{Rate: cfg.WAN.Rate, Delay: cfg.WAN.Delay, MTU: cfg.WAN.MTU, Loss: cfg.WAN.Loss}
	n.Connect(remoteSw, b1, wan).MarkCut()
	n.Connect(remoteSw, b2, wan).MarkCut()

	fast := netsim.LinkConfig{Rate: 100 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000}
	n.Connect(b1, d1, fast)
	n.Connect(b2, d2, fast)
	n.Connect(d1, d2, fast)

	// Enterprise side: redundant firewalls between borders and the
	// enterprise core.
	n.Connect(b1, fw1, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(b2, fw2, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(fw1, ent, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(fw2, ent, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(ent, office, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})

	b := &BigData{
		Net:        n,
		Borders:    [2]*netsim.Device{b1, b2},
		DataPlane:  [2]*netsim.Device{d1, d2},
		Firewalls:  [2]*firewall.Firewall{fw1, fw2},
		Enterprise: ent,
		Office:     office,
		WAN:        cfg.WAN,
	}
	for i := 0; i < cfg.ClusterSize; i++ {
		h := n.NewHost(fmt.Sprintf("xfer%02d", i))
		plane := d1
		if i%2 == 1 {
			plane = d2
		}
		n.Connect(h, plane, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000})
		b.Cluster = append(b.Cluster, dtn.New(h, dtn.Disk{}, tcp.Tuned()))

		r := n.NewHost(fmt.Sprintf("remote%02d", i))
		n.Connect(r, remoteSw, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000})
		b.RemoteCluster = append(b.RemoteCluster, dtn.New(r, dtn.Disk{}, tcp.Tuned()))
	}
	n.ComputeRoutes()
	return b
}

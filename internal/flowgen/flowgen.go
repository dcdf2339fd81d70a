// Package flowgen generates the traffic workloads the paper's analysis
// contrasts (§2, §5): general-purpose "business" traffic — many small
// short-lived flows, the profile enterprise firewalls are engineered for
// — versus data-intensive science traffic: a handful of enormous flows,
// LHC-style cluster transfer meshes, and the NOAA reforecast dataset of
// §6.3.
package flowgen

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/dtn"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Business drives a Poisson stream of small flows from a set of client
// hosts to a server — email, web, procurement (§2): thousands of flows,
// none fast.
type Business struct {
	// Name derives the generator's RNG stream from
	// ("flowgen/business", Name, seed) via sim.DeriveSeed, so two
	// differently named generators in one simulation draw independent
	// streams and adding one never perturbs another (the
	// stream-derivation convention in DESIGN.md). Empty is a name too.
	Name string
	// FlowsPerSecond is the Poisson arrival rate.
	FlowsPerSecond float64
	// MeanSize is the mean flow size (exponentially distributed).
	// Zero defaults to 100 KB.
	MeanSize units.ByteSize
	// Port is the server port; zero defaults to 80.
	Port uint16

	// Started / Completed / Bytes track generated load.
	Started   int
	Completed int
	Bytes     units.ByteSize

	net     *netsim.Network
	clients []*netsim.Host
	srv     *tcp.Server
	rng     *rand.Rand
	stopped bool
}

// StartBusiness begins generating background load from clients to
// server. Flows use legacy (untuned) endpoint options — business
// machines are not DTNs.
func StartBusiness(server *netsim.Host, clients []*netsim.Host, cfg Business, seed int64) *Business {
	b := &cfg
	if b.MeanSize == 0 {
		b.MeanSize = 100 * units.KB
	}
	if b.Port == 0 {
		b.Port = 80
	}
	b.net = server.Network()
	b.clients = clients
	b.srv = tcp.NewServer(server, b.Port, tcp.Legacy())
	b.rng = sim.NewRand(sim.DeriveSeed("flowgen/business", b.Name, strconv.FormatInt(seed, 10)))
	b.scheduleNext()
	return b
}

// Stop ends flow generation (in-flight flows finish).
func (b *Business) Stop() { b.stopped = true }

func (b *Business) scheduleNext() {
	if b.stopped || b.FlowsPerSecond <= 0 {
		return
	}
	wait := time.Duration(b.rng.ExpFloat64() / b.FlowsPerSecond * float64(time.Second))
	if wait < time.Microsecond {
		wait = time.Microsecond
	}
	b.net.Sched.After(wait, func() {
		if b.stopped {
			return
		}
		b.launch()
		b.scheduleNext()
	})
}

func (b *Business) launch() {
	client := b.clients[b.rng.Intn(len(b.clients))]
	size := units.ByteSize(b.rng.ExpFloat64() * float64(b.MeanSize))
	if size < units.KB {
		size = units.KB
	}
	b.Started++
	tcp.Dial(client, b.srv, size, tcp.Legacy(), func(st *tcp.Stats) {
		b.Completed++
		b.Bytes += st.BytesAcked
	})
}

// LHCMesh starts persistent bulk flows between two DTN clusters — the
// big-data-site workload of §4.3, where groups of machines serve
// multi-petabyte stores.
type LHCMesh struct {
	Conns []*tcp.Conn
}

// StartLHCMesh opens flowsPerPair unbounded tuned flows from every
// source to every destination host. Flows run CUBIC, as LHC transfer
// nodes do — Reno's linear recovery is hopeless at Tier-1 BDPs.
func StartLHCMesh(srcs, dsts []*netsim.Host, port uint16, flowsPerPair int) *LHCMesh {
	m := &LHCMesh{}
	for _, dst := range dsts {
		srv := tcp.NewServer(dst, port, tcp.Tuned())
		for _, src := range srcs {
			for i := 0; i < flowsPerPair; i++ {
				m.Conns = append(m.Conns, tcp.Dial(src, srv, -1, tcp.TunedWith(&tcp.Cubic{}), nil))
			}
		}
	}
	return m
}

// Aggregate returns the summed throughput of all mesh flows so far.
func (m *LHCMesh) Aggregate() units.BitRate {
	var sum units.BitRate
	for _, c := range m.Conns {
		sum += c.Stats().Throughput()
	}
	return sum
}

// NOAAReforecast returns the §6.3 dataset: 273 files, 239.5 GB total —
// modelled as uniform file sizes, which is what the paper reports
// ("273 files with a total size of 239.5GB").
func NOAAReforecast() dtn.Dataset {
	const files = 273
	total := units.ByteSize(239.5 * 1e9)
	each := total / files
	d := dtn.UniformDataset("noaa-reforecast", files-1, each)
	// Last file absorbs the rounding remainder so the total is exact.
	d.Files = append(d.Files, total-each*(files-1))
	return d
}

// Carbon14 returns the §6.4 dataset: 20 input files of ~33 GB each (the
// nuclear-structure collaboration whose single file took "more than an
// entire workday" before DTNs).
func Carbon14() dtn.Dataset {
	return dtn.UniformDataset("carbon14", 20, 33*units.GB)
}

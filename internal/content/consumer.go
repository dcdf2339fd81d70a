package content

import (
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// tagContent labels consumer timers in kernel event accounting.
var tagContent = sim.TagFor("content")

// ConsumerConfig adjusts one reader.
type ConsumerConfig struct {
	// Origin is the origin host's name.
	Origin string
	// Catalog is the dataset catalog (shared with the origin).
	Catalog *Catalog
	// Pulls is how many datasets to fetch, drawn from the popularity
	// distribution; each pull fetches the whole dataset chunk by chunk.
	Pulls []*Dataset
	// Window is the number of chunk interests kept outstanding within
	// the current pull. Zero defaults to 4.
	Window int
	// Timeout re-requests a chunk whose data stalled. Zero defaults to
	// 1 s (many WAN RTTs; only loss or overload trips it).
	Timeout time.Duration
	// StartAt delays the first interest — population builders stagger
	// readers so their first pulls do not all collide at t=0.
	StartAt sim.Time
}

// ConsumerStats summarizes one reader's workload.
type ConsumerStats struct {
	Pulls              int
	ChunksCacheServed  int // first segment arrived with FlagCached
	ChunksOriginServed int
	BytesReceived      units.ByteSize
	Retries            int
	Done               bool
	Start, End         sim.Time
	// PullDurations records each completed pull's wall-clock time, in
	// pull order.
	PullDurations []time.Duration
}

// Consumer is one Tier-2 reader: it pulls datasets from the origin
// through whatever caches sit on the path, one dataset at a time with a
// window of outstanding chunk interests, and classifies every chunk by
// who served it. Each consumer emits one transfer span (EvTCPStart /
// EvTCPPhase / EvTCPDone) whose phases alternate between cache-hit and
// origin-serve, so the span timeline shows where its bytes came from.
type Consumer struct {
	host *netsim.Host
	cfg  ConsumerConfig

	Stats ConsumerStats

	cur         int // index into cfg.Pulls
	chunkCursor int // next chunk of the current dataset
	pullStart   sim.Time
	outstanding map[*Chunk]*chunkState
	csFree      *chunkState
	flowLabel   string
	lastPhase   string
	pullCached  int // chunks of the current pull served by a cache
	pullChunks  int
}

// chunkState tracks one outstanding chunk interest.
type chunkState struct {
	got      []uint64
	gotCount int
	cached   bool // first segment carried FlagCached
	timer    sim.Timer
	next     *chunkState
}

// NewConsumer binds a reader to the host and schedules its first
// interest at cfg.StartAt. The host must not already serve
// ConsumerPort.
func NewConsumer(h *netsim.Host, cfg ConsumerConfig) *Consumer {
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = time.Second
	}
	c := &Consumer{
		host:        h,
		cfg:         cfg,
		outstanding: make(map[*Chunk]*chunkState),
		flowLabel:   "content " + h.Name(),
	}
	h.Bind(netsim.ProtoUDP, ConsumerPort, netsim.HandlerFunc(c.deliver))
	h.EventScheduler().AtTag(tagContent, cfg.StartAt, c.begin)
	return c
}

// Host returns the consumer's host.
func (c *Consumer) Host() *netsim.Host { return c.host }

func (c *Consumer) begin() {
	c.Stats.Start = c.host.Now()
	if bus := c.host.TraceBus(); bus.Enabled() {
		var total units.ByteSize
		for _, ds := range c.cfg.Pulls {
			total += ds.Bytes
		}
		bus.Emit(telemetry.Event{
			At: c.Stats.Start, Kind: telemetry.EvTCPStart,
			Node: c.host.Name(), Flow: c.flowLabel, Bytes: int64(total),
		})
		bus.Emit(telemetry.Event{
			At: c.Stats.Start, Kind: telemetry.EvTCPEstablished,
			Node: c.host.Name(), Flow: c.flowLabel,
		})
	}
	c.startPull()
}

func (c *Consumer) startPull() {
	if c.cur >= len(c.cfg.Pulls) {
		c.finish()
		return
	}
	c.pullStart = c.host.Now()
	c.chunkCursor = 0
	c.pullCached = 0
	c.pullChunks = 0
	c.fillWindow()
}

func (c *Consumer) fillWindow() {
	ds := c.cfg.Pulls[c.cur]
	for len(c.outstanding) < c.cfg.Window && c.chunkCursor < len(ds.Chunks) {
		chunk := ds.Chunks[c.chunkCursor]
		c.chunkCursor++
		c.request(chunk, false)
	}
	if len(c.outstanding) == 0 && c.chunkCursor == len(ds.Chunks) {
		c.Stats.Pulls++
		c.Stats.PullDurations = append(c.Stats.PullDurations, c.host.Now().Sub(c.pullStart))
		c.cur++
		c.startPull()
	}
}

// request sends (or re-sends) one chunk interest and arms its stall
// timer.
func (c *Consumer) request(chunk *Chunk, retry bool) {
	st := c.outstanding[chunk]
	if !retry {
		st = c.newChunkState(chunk)
		c.outstanding[chunk] = st
	}
	st.timer = c.host.EventScheduler().AfterCall(tagContent, c.cfg.Timeout, stalledCall, c, chunk)
	pkt := c.host.NewPacket()
	pkt.Flow = netsim.FlowKey{
		Src: c.host.Name(), Dst: c.cfg.Origin,
		SrcPort: ConsumerPort, DstPort: OriginPort,
		Proto: netsim.ProtoUDP,
	}
	pkt.Size = InterestBytes
	pkt.Payload = chunk
	c.host.Send(pkt)
}

// stalledCall is the static callback of a chunk's stall timer, with the
// consumer and the chunk as operands.
func stalledCall(a, b any) { a.(*Consumer).stalled(b.(*Chunk)) }

// stalled fires when a chunk's data did not complete within the
// timeout: re-request the missing segments (duplicates are deduped by
// the bitmap on both ends).
func (c *Consumer) stalled(chunk *Chunk) {
	if _, live := c.outstanding[chunk]; !live {
		return
	}
	c.Stats.Retries++
	c.request(chunk, true)
}

// deliver consumes one data segment. Bound through a netsim.HandlerFunc
// adapter the callgraph cannot see.
//
//dmz:datapath
func (c *Consumer) deliver(pkt *netsim.Packet) {
	chunk, ok := pkt.Payload.(*Chunk)
	if ok {
		if st := c.outstanding[chunk]; st != nil {
			seg := int(pkt.Seq)
			if seg >= 0 && seg < chunk.Segs && !bitGet(st.got, seg) {
				if st.gotCount == 0 {
					st.cached = pkt.Flags.Has(netsim.FlagCached)
				}
				bitSet(st.got, seg)
				st.gotCount++
				if st.gotCount == chunk.Segs {
					c.completeChunk(chunk, st)
				}
			}
		}
	}
	c.host.ReleasePacket(pkt)
}

func (c *Consumer) completeChunk(chunk *Chunk, st *chunkState) {
	st.timer.Stop()
	delete(c.outstanding, chunk)
	c.freeChunkState(st)
	c.Stats.BytesReceived += chunk.Bytes
	c.pullChunks++
	phase := telemetry.PhaseOriginServe
	if st.cached {
		c.Stats.ChunksCacheServed++
		c.pullCached++
		phase = telemetry.PhaseCacheHit
	} else {
		c.Stats.ChunksOriginServed++
	}
	if phase != c.lastPhase {
		c.lastPhase = phase
		if bus := c.host.TraceBus(); bus.Enabled() {
			bus.Emit(telemetry.Event{
				At: c.host.Now(), Kind: telemetry.EvTCPPhase,
				Node: c.host.Name(), Flow: c.flowLabel, Reason: phase,
				Value: float64(c.Stats.BytesReceived),
			})
		}
	}
	c.fillWindow()
}

func (c *Consumer) finish() {
	c.Stats.Done = true
	c.Stats.End = c.host.Now()
	if bus := c.host.TraceBus(); bus.Enabled() {
		bus.Emit(telemetry.Event{
			At: c.Stats.End, Kind: telemetry.EvTCPDone,
			Node: c.host.Name(), Flow: c.flowLabel,
			Reason: "success", Bytes: int64(c.Stats.BytesReceived),
		})
	}
}

func (c *Consumer) newChunkState(chunk *Chunk) *chunkState {
	words := (chunk.Segs + 63) / 64
	st := c.csFree
	if st == nil {
		st = &chunkState{}
	} else {
		c.csFree = st.next
		st.next = nil
	}
	if cap(st.got) < words {
		st.got = make([]uint64, words)
	} else {
		st.got = st.got[:words]
		for i := range st.got {
			st.got[i] = 0
		}
	}
	st.gotCount = 0
	st.cached = false
	return st
}

func (c *Consumer) freeChunkState(st *chunkState) {
	st.next = c.csFree
	c.csFree = st
}

// PopulationConfig adjusts a reader population.
type PopulationConfig struct {
	// Origin is the origin host's name.
	Origin string
	// Catalog is the shared dataset catalog; dataset order is
	// popularity order.
	Catalog *Catalog
	// PullsPerReader is each reader's dataset-fetch count.
	PullsPerReader int
	// Skew is the Zipf exponent over the catalog (1.0 = classic Zipf,
	// 0 = uniform).
	Skew float64
	// Window / Timeout pass through to each consumer.
	Window  int
	Timeout time.Duration
	// Seed feeds the per-consumer FNV-1a stream derivation.
	Seed int64
	// StartSpread staggers reader start times evenly across this
	// interval. Zero defaults to 100 ms.
	StartSpread time.Duration
}

// Population drives many readers with Zipf-popularity pulls — the
// flowgen idiom applied to the content read path. Each reader's pull
// sequence comes from its own derived RNG stream
// ("content/consumer"/<host>/<seed>), so populations are deterministic,
// order-independent, and shard-count-invariant.
type Population struct {
	Consumers []*Consumer
}

// NewPopulation builds one consumer per host.
func NewPopulation(hosts []*netsim.Host, cfg PopulationConfig) *Population {
	if cfg.StartSpread == 0 {
		cfg.StartSpread = 100 * time.Millisecond
	}
	zipf := NewZipf(len(cfg.Catalog.Datasets), cfg.Skew)
	p := &Population{}
	for i, h := range hosts {
		rng := sim.NewRand(sim.DeriveSeed("content/consumer", h.Name(), strconv.FormatInt(cfg.Seed, 10)))
		pulls := make([]*Dataset, cfg.PullsPerReader)
		for j := range pulls {
			pulls[j] = cfg.Catalog.Datasets[zipf.Rank(rng.Float64())]
		}
		start := sim.Time(0).Add(cfg.StartSpread * time.Duration(i) / time.Duration(len(hosts)))
		p.Consumers = append(p.Consumers, NewConsumer(h, ConsumerConfig{
			Origin:  cfg.Origin,
			Catalog: cfg.Catalog,
			Pulls:   pulls,
			Window:  cfg.Window,
			Timeout: cfg.Timeout,
			StartAt: start,
		}))
	}
	return p
}

// Done reports whether every reader finished its workload.
func (p *Population) Done() bool {
	for _, c := range p.Consumers {
		if !c.Stats.Done {
			return false
		}
	}
	return true
}

// PullDurations returns every completed pull's duration across the
// population, in deterministic (reader, pull) order.
func (p *Population) PullDurations() []time.Duration {
	var out []time.Duration
	for _, c := range p.Consumers {
		out = append(out, c.Stats.PullDurations...)
	}
	return out
}

// ChunksServed returns population totals: cache-served and
// origin-served chunk counts and bytes received.
func (p *Population) ChunksServed() (cached, origin int, bytes units.ByteSize) {
	for _, c := range p.Consumers {
		cached += c.Stats.ChunksCacheServed
		origin += c.Stats.ChunksOriginServed
		bytes += c.Stats.BytesReceived
	}
	return
}

// Determinism tests live outside the telemetry package so they can
// drive real netsim+tcp scenarios (telemetry cannot import netsim
// without a cycle).
package telemetry_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// tracedRun runs a seeded lossy TCP transfer with full telemetry
// enabled and returns the JSONL trace bytes plus the final metrics
// snapshot list rendered as JSON.
func tracedRun(t *testing.T, seed int64) (trace, metrics []byte) {
	t.Helper()
	tele := telemetry.New()
	tele.SampleInterval = 100 * time.Millisecond

	var traceBuf bytes.Buffer
	w := telemetry.NewJSONLWriter(&traceBuf)
	tele.Bus.Subscribe(w.Write)

	n := netsim.New(seed)
	n.AttachTelemetry(tele)
	c := n.NewHost("client")
	s := n.NewHost("server")
	r1 := n.NewDevice("r1", netsim.DeviceConfig{EgressBuffer: 4 * units.MB})
	n.Connect(c, r1, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond, MTU: 1500})
	n.Connect(r1, s, netsim.LinkConfig{Rate: units.Gbps, Delay: 2 * time.Millisecond,
		Loss: netsim.RandomLoss{P: 2e-3}, MTU: 1500})
	n.ComputeRoutes()

	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	tcp.Dial(c, srv, 2*units.MB, tcp.Tuned(), nil)
	n.RunFor(2 * time.Second)

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var metricsBuf bytes.Buffer
	if err := tele.WriteMetricsJSON(&metricsBuf); err != nil {
		t.Fatal(err)
	}
	return traceBuf.Bytes(), metricsBuf.Bytes()
}

func TestTraceAndMetricsDeterministic(t *testing.T) {
	trace1, metrics1 := tracedRun(t, 42)
	trace2, metrics2 := tracedRun(t, 42)

	if len(trace1) == 0 {
		t.Fatal("traced lossy run produced no events")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Error("identically-seeded runs produced different JSONL traces")
	}
	if !bytes.Equal(metrics1, metrics2) {
		t.Error("identically-seeded runs produced different metrics snapshots")
	}

	// A different seed must give a different trace (the loss process is
	// seeded), otherwise the equality above proves nothing.
	trace3, _ := tracedRun(t, 43)
	if bytes.Equal(trace1, trace3) {
		t.Error("different seeds produced identical traces")
	}
}

func TestTraceCoversPacketAndTCPLifecycle(t *testing.T) {
	tele := telemetry.New()
	kinds := make(map[telemetry.EventKind]int)
	tele.Bus.Subscribe(func(ev *telemetry.Event) { kinds[ev.Kind]++ })

	n := netsim.New(7)
	n.AttachTelemetry(tele)
	c := n.NewHost("client")
	s := n.NewHost("server")
	r1 := n.NewDevice("r1", netsim.DeviceConfig{EgressBuffer: 256 * units.KB})
	n.Connect(c, r1, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond, MTU: 1500})
	n.Connect(r1, s, netsim.LinkConfig{Rate: 100 * units.Mbps, Delay: 5 * time.Millisecond,
		Loss: netsim.RandomLoss{P: 5e-4}, MTU: 1500})
	n.ComputeRoutes()

	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	tcp.Dial(c, srv, 4*units.MB, tcp.Tuned(), nil)
	n.RunFor(3 * time.Second)

	for _, want := range []telemetry.EventKind{
		telemetry.EvEnqueue, telemetry.EvDequeue, telemetry.EvForward,
		telemetry.EvWireLoss, telemetry.EvTCPCwnd, telemetry.EvTCPRetransmit,
		telemetry.EvTCPRecoveryEnter, telemetry.EvTCPRecoveryExit,
		telemetry.EvTCPWScale,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %v events in a lossy TCP run (saw %v)", want, kinds)
		}
	}
}

func TestDropEventsCarryStructuredReason(t *testing.T) {
	tele := telemetry.New()
	var drops []telemetry.Event
	tele.Bus.Subscribe(func(ev *telemetry.Event) {
		if ev.Kind == telemetry.EvDrop || ev.Kind == telemetry.EvWireLoss {
			drops = append(drops, *ev)
		}
	})

	n := netsim.New(3)
	n.AttachTelemetry(tele)
	c := n.NewHost("client")
	s := n.NewHost("server")
	// Tiny buffer forces queue-overflow drops.
	r1 := n.NewDevice("r1", netsim.DeviceConfig{EgressBuffer: 16 * units.KB})
	n.Connect(c, r1, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond, MTU: 1500})
	n.Connect(r1, s, netsim.LinkConfig{Rate: 10 * units.Mbps, Delay: time.Millisecond, MTU: 1500})
	n.ComputeRoutes()

	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	tcp.Dial(c, srv, units.MB, tcp.Tuned(), nil)
	n.RunFor(2 * time.Second)

	if len(drops) == 0 {
		t.Fatal("overloaded path produced no drop events")
	}
	var overflows uint64
	for _, ev := range drops {
		if ev.Reason == "" {
			t.Fatalf("drop event missing structured reason: %+v", ev)
		}
		if ev.Reason == netsim.DropQueueOverflow.String() {
			overflows++
			if ev.Node == "" {
				t.Errorf("queue-overflow drop missing node: %+v", ev)
			}
		}
	}
	if overflows == 0 {
		t.Error("no queue-overflow drops recorded")
	}
	// The structured stats must agree with the traced events: every
	// overflow happened at r1.
	site := netsim.DropSite{Reason: netsim.DropQueueOverflow, Node: "r1"}
	if got := n.DropStats[site]; got != overflows {
		t.Errorf("DropStats[%v]=%d, traced overflows=%d", site, got, overflows)
	}
}

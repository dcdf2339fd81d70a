package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

func quickSweepConfig() SweepConfig {
	return SweepConfig{
		Axis:     "loss",
		Min:      1e-4,
		Max:      1e-2,
		Points:   4,
		RTT:      5 * time.Millisecond,
		Duration: time.Second,
	}
}

func TestRunSweepValidation(t *testing.T) {
	if _, err := RunSweep(runCtx(t), SweepConfig{Axis: "mtu", Min: 1, Max: 2}); err == nil {
		t.Error("unknown axis accepted")
	}
	if _, err := RunSweep(runCtx(t), SweepConfig{Axis: "loss", Min: 0, Max: 1e-2}); err == nil {
		t.Error("zero min accepted (log spacing needs min > 0)")
	}
	if _, err := RunSweep(runCtx(t), SweepConfig{Axis: "loss", Min: 1e-2, Max: 1e-4}); err == nil {
		t.Error("inverted bounds accepted")
	}
}

// TestSweepDeterministicAcrossParallelism is the end-to-end determinism
// check the harness promises: the rendered sweep table — floats,
// ordering, everything — is byte-identical whether run on 1 worker or 8.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	var outs []string
	for _, par := range []int{1, 8} {
		r, err := RunSweep(&harness.Ctx{Parallel: par}, quickSweepConfig())
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		outs = append(outs, r.Render())
	}
	if outs[0] != outs[1] {
		t.Fatalf("sweep output depends on worker count:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
			outs[0], outs[1])
	}
	checkGolden(t, "sweep_loss_quick.txt", outs[0])
}

func TestRunSweepLossAxisShape(t *testing.T) {
	r, err := RunSweep(runCtx(t), quickSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if len(r.Violations) != 0 {
		t.Fatalf("invariant violations: %v", r.Violations)
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.Loss >= last.Loss {
		t.Fatalf("loss axis not increasing: %v .. %v", first.Loss, last.Loss)
	}
	if first.Measured <= last.Measured {
		t.Errorf("throughput should fall with loss: %v at %.0e vs %v at %.0e",
			first.Measured, first.Loss, last.Measured, last.Loss)
	}
	if first.Mathis <= last.Mathis {
		t.Errorf("Mathis bound should fall with loss")
	}
	if !strings.Contains(r.Render(), "loss axis") {
		t.Error("render missing content")
	}
}

func TestRunSweepRTTAxis(t *testing.T) {
	r, err := RunSweep(runCtx(t), SweepConfig{
		Axis:     "rtt",
		Min:      0.002,
		Max:      0.02,
		Points:   3,
		Loss:     1e-3,
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !strings.HasPrefix(row.Label, "rtt=") {
			t.Errorf("label %q not an rtt point", row.Label)
		}
	}
	if r.Rows[0].RTT >= r.Rows[2].RTT {
		t.Errorf("rtt axis not increasing: %v .. %v", r.Rows[0].RTT, r.Rows[2].RTT)
	}
	// Mathis: rate ~ 1/RTT at fixed loss.
	if r.Rows[0].Mathis <= r.Rows[2].Mathis {
		t.Errorf("Mathis bound should fall with RTT: %v vs %v", r.Rows[0].Mathis, r.Rows[2].Mathis)
	}
}

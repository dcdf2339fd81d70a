package fluid

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestHybridShardInvariance: the fluid tick runs on the control
// scheduler, which fires at barrier windows with every shard quiesced,
// so a hybrid scenario must produce byte-identical results, event
// count included, at any shard count. The scenario bottleneck is a
// marked cut link, so the engine actually splits the dumbbell.
func TestHybridShardInvariance(t *testing.T) {
	sc := Scenarios()[1] // contended: elephant + background across the cut
	sc.Warmup = 0
	sc.Duration = 2 * time.Second
	run := func(shards int) string {
		prev := netsim.DefaultShards
		netsim.DefaultShards = shards
		defer func() { netsim.DefaultShards = prev }()
		st, eng := RunHybrid(sc)
		if len(st.AuditErrs) != 0 {
			t.Fatalf("shards=%d audit failed: %v", shards, st.AuditErrs)
		}
		if ctl := eng.net.Sched.Processed; st.Events <= ctl {
			t.Fatalf("shards=%d: %d events counts only the control scheduler's %d", shards, st.Events, ctl)
		}
		return fmt.Sprintf("events=%d\n", st.Events) + hybridFingerprint(st, eng)
	}
	ref := run(1)
	for _, n := range []int{2, 4} {
		if got := run(n); got != ref {
			t.Errorf("hybrid run diverges at %d shards:\n-- shards=1 --\n%s-- shards=%d --\n%s", n, ref, n, got)
		}
	}
}

package fluid

import (
	"fmt"
	"testing"
	"time"
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
		ctx := runCtx(t)
		ctx.Shards = shards
		st, eng := RunHybrid(ctx, sc)
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

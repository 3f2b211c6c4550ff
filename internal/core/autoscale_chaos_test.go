package core_test

// The scale-storm autoscaling chaos gate: a 2-store base fleet with a
// warm pool (one spare dead on arrival) rides an open-loop load ramp
// up to peak and back down, with a burst + store-kill landing mid
// scale-in. The autoscaler must grow the fleet, skip the dead spare,
// roll the interrupted drain back with zero fenced survivors, heal the
// evacuation storm, and converge back to the base size — with every
// surviving lineage bit-identical and both fencing invariants intact.
// The engine lives in internal/bench (AutoscaleChaosRun); this binds
// it to the seeds and fault rates `make scalecheck` pins. Scale is
// environment-gated: plain `go test` ramps to 24 lineages, scalecheck
// sets AURORA_SCALE=full for 48 (which forces the fleet all the way to
// its 6-store ceiling: 2→6→2).

import (
	"fmt"
	"testing"

	"aurora/internal/bench"
	"aurora/internal/core"
)

func runAutoscaleChaos(t *testing.T, seed int64) {
	rates := []float64{0, 0.01, 0.05}
	groups := core.Scale(24, 48)
	if testing.Short() {
		rates = []float64{0.01}
		groups = 16
	}
	for _, rate := range rates {
		rate := rate
		t.Run(fmt.Sprintf("rate%g", rate*100), func(t *testing.T) {
			rep, err := bench.AutoscaleChaosRun(bench.AutoscaleChaosConfig{
				Seed:          seed,
				PeakGroups:    groups,
				LinkDrop:      rate,
				LinkDup:       rate / 2,
				LinkCorrupt:   rate / 2,
				StoreWriteErr: rate / 5,
				StoreReadErr:  rate / 5,
			})
			if err != nil {
				t.Fatalf("autoscale chaos seed %d rate %g: %v", seed, rate, err)
			}
			if rep.ScaledTo < rep.ExpectedPeak {
				t.Fatalf("ramp-up scaled to %d stores, load level demands >= %d", rep.ScaledTo, rep.ExpectedPeak)
			}
			if !rep.DeadSkipped {
				t.Fatalf("dead warm spare %s was never skipped", rep.DeadSpare)
			}
			if rep.Rollbacks == 0 {
				t.Fatalf("mid-scale-in storm never forced a rollback (drainee %s, victim %s)",
					rep.Drainee, rep.Victim)
			}
			if rep.ScaleIns == 0 {
				t.Fatalf("ramp-down completed no scale-in")
			}
			if rep.FinalActive != 2 {
				t.Fatalf("fleet settled at %d active stores, want 2", rep.FinalActive)
			}
			if rep.Evacuated == 0 {
				t.Fatalf("victim %s held no residents — the kill exercised nothing", rep.Victim)
			}
			// Each verified lineage counts twice (live + scratch restore):
			// the victim's residents post-storm and every survivor at the
			// end.
			if rep.RestoresVerified < 2*(rep.Evacuated+rep.FinalGroups) {
				t.Fatalf("restores verified = %d, want >= %d",
					rep.RestoresVerified, 2*(rep.Evacuated+rep.FinalGroups))
			}
			if rep.Violations != 0 {
				t.Fatalf("%d invariant violations", rep.Violations)
			}
			if rep.FinalDurable == 0 {
				t.Fatalf("fleet made no durable progress")
			}
			if rep.ConvergeOutTicks == 0 || rep.ConvergeInTicks == 0 {
				t.Fatalf("convergence not recorded (out %d, in %d)", rep.ConvergeOutTicks, rep.ConvergeInTicks)
			}
		})
	}
}

func TestAutoscaleChaosSeed1(t *testing.T)  { runAutoscaleChaos(t, 1) }
func TestAutoscaleChaosSeed7(t *testing.T)  { runAutoscaleChaos(t, 7) }
func TestAutoscaleChaosSeed42(t *testing.T) { runAutoscaleChaos(t, 42) }

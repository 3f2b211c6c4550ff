package core_test

// The store-kill placement chaos gate: a 4-store fleet with hundreds
// of placed lineages under open-loop checkpoint load, one store killed
// permanently, every resident re-homed with bit-identical state and
// the fleet invariants intact, then a full drain of one survivor. The
// engine lives in internal/bench (PlacementChaosRun); this binds it to
// the seeds and fault rates `make placecheck` pins. Scale is
// environment-gated like the fleet harness: plain `go test` places 48
// lineages per cell, placecheck sets AURORA_SCALE=full for 256.

import (
	"fmt"
	"testing"
	"time"

	"aurora/internal/bench"
	"aurora/internal/core"
)

func runPlacementChaos(t *testing.T, seed int64) {
	rates := []float64{0, 0.01, 0.05}
	groups := core.Scale(48, 256)
	if testing.Short() {
		rates = []float64{0.01}
		groups = 12
	}
	for _, rate := range rates {
		rate := rate
		t.Run(fmt.Sprintf("rate%g", rate*100), func(t *testing.T) {
			rep, err := bench.PlacementChaosRun(bench.PlacementChaosConfig{
				Seed:            seed,
				Stores:          4,
				Groups:          groups,
				Drain:           true,
				EvacConcurrency: 2,
				LinkDrop:        rate,
				LinkDup:         rate / 2,
				LinkCorrupt:     rate / 2,
				StoreWriteErr:   rate / 5,
				StoreReadErr:    rate / 5,
			})
			if err != nil {
				t.Fatalf("placement chaos seed %d rate %g: %v", seed, rate, err)
			}
			if rep.Placed != groups {
				t.Fatalf("placed %d of %d", rep.Placed, groups)
			}
			if rep.Residents == 0 || rep.Evacuated != rep.Residents {
				t.Fatalf("evacuated %d of %d residents on %s", rep.Evacuated, rep.Residents, rep.Victim)
			}
			if rep.Violations != 0 {
				t.Fatalf("%d anti-affinity violations after heal", rep.Violations)
			}
			// Each evacuated resident is verified twice: live state on
			// the new primary and a scratch-machine restore from its
			// store. The drain leg re-verifies what it moved.
			if rep.RestoresVerified < 2*rep.Residents {
				t.Fatalf("restores verified = %d, want ≥ %d", rep.RestoresVerified, 2*rep.Residents)
			}
			if rep.Residents > 2 && rep.Evacuating == 0 {
				t.Fatalf("queue depth %d never surfaced ErrEvacuating", rep.Residents)
			}
			if rep.EvacTTRp99 <= 0 || rep.EvacTTRp99 >= time.Second {
				t.Fatalf("evacuation TTR p99 = %v, want sub-second", rep.EvacTTRp99)
			}
			if rep.Drained == 0 {
				t.Fatalf("drain leg moved nothing")
			}
			if rep.FinalDurable == 0 {
				t.Fatalf("fleet made no post-heal progress")
			}
		})
	}
}

func TestPlacementChaosSeed1(t *testing.T)  { runPlacementChaos(t, 1) }
func TestPlacementChaosSeed7(t *testing.T)  { runPlacementChaos(t, 7) }
func TestPlacementChaosSeed42(t *testing.T) { runPlacementChaos(t, 42) }

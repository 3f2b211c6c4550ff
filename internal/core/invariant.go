package core

import "fmt"

// The standing invariants, each stated once: the chaos harness
// (internal/bench) runs them after every script phase, the Autoscaler
// every tick. Placer.AntiAffinityViolations is the fourth of the set.

// CheckOnePrimary asserts the fencing invariant for a lineage: among
// the stores that claim the primary role, exactly one holds the claim
// at the maximum generation. Stale claims below it are legal (a dead
// or fenced store cannot retract its own); no claim at all is not.
func CheckOnePrimary(lineage uint64, stores []*StoreNode) error {
	var claims []string
	var maxGen uint64
	atMax := 0
	for _, n := range stores {
		gen, primary := n.SB.Store().PrimaryGen(lineage)
		if !primary {
			continue
		}
		claims = append(claims, fmt.Sprintf("%s@gen%d", n.Name, gen))
		if atMax == 0 || gen > maxGen {
			maxGen, atMax = gen, 1
		} else if gen == maxGen {
			atMax++
		}
	}
	if atMax != 1 {
		return fmt.Errorf("core: lineage %d: %d stores claim primary at max generation %d, want exactly 1 (claims %v)", lineage, atMax, maxGen, claims)
	}
	return nil
}

// DurableWatch asserts that a lineage's durable epoch never regresses
// for as long as one group on one machine carries it; whoever hands the
// lineage over (a restore, a promotion, a migration) resets its entry.
type DurableWatch map[uint64]uint64

// Observe records the lineage's durable epoch, failing on a regression.
func (w DurableWatch) Observe(lineage, durable uint64) error {
	if prev := w[lineage]; durable < prev {
		return fmt.Errorf("core: lineage %d: durable epoch regressed %d -> %d", lineage, prev, durable)
	}
	w[lineage] = durable
	return nil
}

// CheckReleasedCovered asserts that externally released output is not
// lost by a restore or promotion landing at epoch restored. Output of
// epoch E is released once checkpoint E+1 is replicated, so either the
// restored epoch lies above the released watermark, or — when a
// self-healing restore fell back below it — the replica's contiguous
// floor does, and the released suffix is recoverable from there.
func CheckReleasedCovered(lineage, released, restored, replicaFloor uint64) error {
	if restored <= released && replicaFloor <= released {
		return fmt.Errorf("core: lineage %d: restore at epoch %d loses released output (watermark %d, replica floor %d)", lineage, restored, released, replicaFloor)
	}
	return nil
}

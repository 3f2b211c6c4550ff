package core_test

// The standing invariants of invariant.go must be able to fail: every
// chaos gate leans on them, and a check that cannot fire proves
// nothing. Each case pairs a violation — whose error must name the
// lineage and what was observed — with the healthy variant next to it.

import (
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// claimStores builds one store per claim (0 = the store claims nothing)
// and claims the primary role for lineage at each generation.
func claimStores(t *testing.T, lineage uint64, gens ...uint64) []*core.StoreNode {
	t.Helper()
	clock := storage.NewClock()
	var stores []*core.StoreNode
	for i, gen := range gens {
		st := objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock)
		if gen > 0 {
			if err := st.SetPrimary(lineage, gen); err != nil {
				t.Fatal(err)
			}
		}
		stores = append(stores, &core.StoreNode{
			Name: string(rune('a' + i)),
			SB:   core.NewStoreBackend(st, vm.NewPhysMem(0), clock),
		})
	}
	return stores
}

func TestInvariantsFire(t *testing.T) {
	const lineage = 7
	cases := []struct {
		name  string
		check func() error
		want  []string // substrings of the error; nil = must pass
	}{
		{"one claim", func() error { return core.CheckOnePrimary(lineage, claimStores(t, lineage, 3, 0)) }, nil},
		{"stale claim below the max", func() error { return core.CheckOnePrimary(lineage, claimStores(t, lineage, 2, 3)) }, nil},
		{"two claims at the max", func() error { return core.CheckOnePrimary(lineage, claimStores(t, lineage, 3, 2, 3)) },
			[]string{"lineage 7", "2 stores", "generation 3", "a@gen3", "b@gen2", "c@gen3"}},
		{"no claim at all", func() error { return core.CheckOnePrimary(lineage, claimStores(t, lineage, 0, 0)) },
			[]string{"lineage 7", "0 stores"}},

		{"durable advances", func() error {
			w := core.DurableWatch{}
			_ = w.Observe(lineage, 4)
			return w.Observe(lineage, 4)
		}, nil},
		{"durable regresses", func() error {
			w := core.DurableWatch{}
			_ = w.Observe(lineage, 9)
			return w.Observe(lineage, 8)
		}, []string{"lineage 7", "9 -> 8"}},
		{"durable watched per lineage", func() error {
			w := core.DurableWatch{}
			_ = w.Observe(lineage, 9)
			return w.Observe(lineage+1, 1)
		}, nil},

		{"restore above the watermark", func() error { return core.CheckReleasedCovered(lineage, 5, 6, 0) }, nil},
		{"fallback restore, replica floor covers", func() error { return core.CheckReleasedCovered(lineage, 5, 3, 6) }, nil},
		{"fallback restore, short replica floor", func() error { return core.CheckReleasedCovered(lineage, 5, 3, 5) },
			[]string{"lineage 7", "epoch 3", "watermark 5", "replica floor 5"}},
	}
	for _, tc := range cases {
		err := tc.check()
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: healthy state rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: violation not detected", tc.name)
			continue
		}
		for _, sub := range tc.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, sub)
			}
		}
	}
}
